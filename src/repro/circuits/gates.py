"""Gate definitions for the MEMQSim circuit IR.

Every gate is represented by a :class:`Gate` instance carrying

* a canonical lower-case name,
* the qubits it acts on (target qubits last, controls first for controlled
  gates),
* optional real parameters (rotation angles etc.), and
* an exact dense unitary matrix over its own qubits, in the *little-endian*
  qubit convention used throughout this package: qubit 0 is the least
  significant bit of the computational-basis index, and for a gate on qubits
  ``(q0, q1, ..)`` the first listed qubit is the least significant axis of the
  gate matrix.

The module provides:

* matrix constructors for the full standard gate set,
* :class:`GateSpec` entries in :data:`GATE_SET` describing arity and parameter
  count, used by the QASM parser and the circuit builder,
* helpers to build controlled and adjoint versions of arbitrary matrices.

Matrices are small (``2^k x 2^k`` for a ``k``-qubit gate, with k <= 3 for the
named set), so they are built eagerly and cached per parameter tuple.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Gate",
    "GateSpec",
    "GATE_SET",
    "gate_matrix",
    "make_gate",
    "make_diagonal_gate",
    "controlled_matrix",
    "adjoint_matrix",
    "is_unitary",
    "is_diagonal",
    "gate_is_diagonal",
    "is_permutation",
    "SQRT2_INV",
]

SQRT2_INV = 1.0 / math.sqrt(2.0)

_CDTYPE = np.complex128


# ---------------------------------------------------------------------------
# Primitive matrices
# ---------------------------------------------------------------------------

def _mat(rows) -> np.ndarray:
    m = np.array(rows, dtype=_CDTYPE)
    m.setflags(write=False)
    return m


_I2 = _mat([[1, 0], [0, 1]])
_X = _mat([[0, 1], [1, 0]])
_Y = _mat([[0, -1j], [1j, 0]])
_Z = _mat([[1, 0], [0, -1]])
_H = _mat([[SQRT2_INV, SQRT2_INV], [SQRT2_INV, -SQRT2_INV]])
_S = _mat([[1, 0], [0, 1j]])
_SDG = _mat([[1, 0], [0, -1j]])
_T = _mat([[1, 0], [0, cmath.exp(1j * math.pi / 4)]])
_TDG = _mat([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]])
_SX = _mat([[0.5 + 0.5j, 0.5 - 0.5j], [0.5 - 0.5j, 0.5 + 0.5j]])
_SXDG = _mat([[0.5 - 0.5j, 0.5 + 0.5j], [0.5 + 0.5j, 0.5 - 0.5j]])
_ID = _I2

# Two-qubit primitives in little-endian convention: for a gate on (q0, q1),
# basis order is |q1 q0> = 00, 01, 10, 11 where the *first* listed qubit is
# the least-significant bit of the index.
_SWAP = _mat(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ]
)
_ISWAP = _mat(
    [
        [1, 0, 0, 0],
        [0, 0, 1j, 0],
        [0, 1j, 0, 0],
        [0, 0, 0, 1],
    ]
)


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat([[c, -1j * s], [-1j * s, c]])


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat([[c, -s], [s, c]])


def _rz(theta: float) -> np.ndarray:
    e = cmath.exp(-1j * theta / 2)
    return _mat([[e, 0], [0, e.conjugate()]])


def _p(lam: float) -> np.ndarray:
    return _mat([[1, 0], [0, cmath.exp(1j * lam)]])


def _u1(lam: float) -> np.ndarray:
    return _p(lam)


def _u2(phi: float, lam: float) -> np.ndarray:
    return _mat(
        [
            [SQRT2_INV, -SQRT2_INV * cmath.exp(1j * lam)],
            [SQRT2_INV * cmath.exp(1j * phi), SQRT2_INV * cmath.exp(1j * (phi + lam))],
        ]
    )


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat(
        [
            [c, -s * cmath.exp(1j * lam)],
            [s * cmath.exp(1j * phi), c * cmath.exp(1j * (phi + lam))],
        ]
    )


def _gphase(gamma: float) -> np.ndarray:
    e = cmath.exp(1j * gamma)
    return _mat([[e, 0], [0, e]])


def _rxx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), -1j * math.sin(theta / 2)
    return _mat(
        [
            [c, 0, 0, s],
            [0, c, s, 0],
            [0, s, c, 0],
            [s, 0, 0, c],
        ]
    )


def _ryy(theta: float) -> np.ndarray:
    c = math.cos(theta / 2)
    s = 1j * math.sin(theta / 2)
    return _mat(
        [
            [c, 0, 0, s],
            [0, c, -s, 0],
            [0, -s, c, 0],
            [s, 0, 0, c],
        ]
    )


def _rzz(theta: float) -> np.ndarray:
    e = cmath.exp(-1j * theta / 2)
    ec = e.conjugate()
    return _mat(
        [
            [e, 0, 0, 0],
            [0, ec, 0, 0],
            [0, 0, ec, 0],
            [0, 0, 0, e],
        ]
    )


def _fsim(theta: float, phi: float) -> np.ndarray:
    """Google-supremacy style fSim gate (iSWAP-like + controlled phase)."""
    c, s = math.cos(theta), math.sin(theta)
    return _mat(
        [
            [1, 0, 0, 0],
            [0, c, -1j * s, 0],
            [0, -1j * s, c, 0],
            [0, 0, 0, cmath.exp(-1j * phi)],
        ]
    )


def controlled_matrix(base: np.ndarray, num_controls: int = 1) -> np.ndarray:
    """Return the matrix of ``base`` controlled on ``num_controls`` qubits.

    Controls are the *low* qubit axes (listed first in the gate's qubit
    tuple); the base gate acts on the high axes. The controlled unitary acts
    as the identity unless every control bit is 1.

    In little-endian convention with controls first, a basis index of the
    combined gate is ``i = c + (t << num_controls)`` where ``c`` ranges over
    control bit patterns and ``t`` over base-gate indices. The gate applies
    ``base`` on the ``t`` part only when ``c == all-ones``.
    """
    if num_controls < 1:
        return base
    k = int(round(math.log2(base.shape[0])))
    dim = 2 ** (k + num_controls)
    out = np.eye(dim, dtype=_CDTYPE)
    mask = (1 << num_controls) - 1
    # Rows/cols where all control bits are set.
    sel = [(t << num_controls) | mask for t in range(2**k)]
    out[np.ix_(sel, sel)] = base
    out.setflags(write=False)
    return out


def adjoint_matrix(m: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(m.conj().T)
    out.setflags(write=False)
    return out


def is_unitary(m: np.ndarray, atol: float = 1e-10) -> bool:
    d = m.shape[0]
    return bool(np.allclose(m @ m.conj().T, np.eye(d), atol=atol))


def is_diagonal(m: np.ndarray, atol: float = 1e-12) -> bool:
    return bool(np.allclose(m, np.diag(np.diag(m)), atol=atol))


#: named gates whose unitary is diagonal for every parameter value
_DIAGONAL_GATE_NAMES = frozenset(
    ("z", "s", "sdg", "t", "tdg", "rz", "p", "u1", "cz", "cp",
     "cu1", "crz", "rzz", "ccz", "gphase", "id")
)


def gate_is_diagonal(g: "Gate") -> bool:
    """True when the gate's unitary is diagonal (cheap name/diag check first)."""
    if g.diag is not None:
        return True
    if g.name in _DIAGONAL_GATE_NAMES:
        return True
    if g.name == "unitary":
        return is_diagonal(g.matrix)
    return False


def is_permutation(m: np.ndarray, atol: float = 1e-12) -> bool:
    """True if the matrix is a (phaseless) 0/1 permutation matrix."""
    near = np.isclose(np.abs(m), 1.0, atol=atol)
    ok_vals = np.all(np.isclose(m[near], 1.0, atol=atol))
    return (
        bool(ok_vals)
        and bool(np.all(near.sum(axis=0) == 1))
        and bool(np.all(near.sum(axis=1) == 1))
        and bool(np.allclose(m[~near], 0.0, atol=atol))
    )


# ---------------------------------------------------------------------------
# Gate registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateSpec:
    """Static description of a named gate.

    Attributes:
        name: canonical lower-case name.
        num_qubits: total qubits the gate acts on (controls included).
        num_params: number of real parameters.
        num_controls: how many of the qubits are controls (listed first).
        matrix_fn: builds the full matrix from the parameter tuple.
        self_adjoint: whether the gate equals its own inverse.
    """

    name: str
    num_qubits: int
    num_params: int
    matrix_fn: Callable[..., np.ndarray]
    num_controls: int = 0
    self_adjoint: bool = False


def _const(m: np.ndarray) -> Callable[..., np.ndarray]:
    return lambda: m


def _ctrl(fn: Callable[..., np.ndarray], nc: int = 1) -> Callable[..., np.ndarray]:
    return lambda *params: controlled_matrix(fn(*params), nc)


GATE_SET: Dict[str, GateSpec] = {}


def _register(spec: GateSpec) -> None:
    GATE_SET[spec.name] = spec


for _name, _m, _sa in [
    ("id", _ID, True),
    ("x", _X, True),
    ("y", _Y, True),
    ("z", _Z, True),
    ("h", _H, True),
    ("s", _S, False),
    ("sdg", _SDG, False),
    ("t", _T, False),
    ("tdg", _TDG, False),
    ("sx", _SX, False),
    ("sxdg", _SXDG, False),
]:
    _register(GateSpec(_name, 1, 0, _const(_m), self_adjoint=_sa))

for _name, _fn, _np_ in [
    ("rx", _rx, 1),
    ("ry", _ry, 1),
    ("rz", _rz, 1),
    ("p", _p, 1),
    ("u1", _u1, 1),
    ("u2", _u2, 2),
    ("u3", _u3, 3),
    ("u", _u3, 3),
    ("gphase", _gphase, 1),
]:
    _register(GateSpec(_name, 1, _np_, _fn))

_register(GateSpec("swap", 2, 0, _const(_SWAP), self_adjoint=True))
_register(GateSpec("iswap", 2, 0, _const(_ISWAP)))
_register(GateSpec("rxx", 2, 1, _rxx))
_register(GateSpec("ryy", 2, 1, _ryy))
_register(GateSpec("rzz", 2, 1, _rzz))
_register(GateSpec("fsim", 2, 2, _fsim))

_register(GateSpec("cx", 2, 0, _ctrl(_const(_X)), num_controls=1, self_adjoint=True))
_register(GateSpec("cy", 2, 0, _ctrl(_const(_Y)), num_controls=1, self_adjoint=True))
_register(GateSpec("cz", 2, 0, _ctrl(_const(_Z)), num_controls=1, self_adjoint=True))
_register(GateSpec("ch", 2, 0, _ctrl(_const(_H)), num_controls=1, self_adjoint=True))
_register(GateSpec("csx", 2, 0, _ctrl(_const(_SX)), num_controls=1))
_register(GateSpec("cp", 2, 1, _ctrl(_p), num_controls=1))
_register(GateSpec("cu1", 2, 1, _ctrl(_u1), num_controls=1))
_register(GateSpec("crx", 2, 1, _ctrl(_rx), num_controls=1))
_register(GateSpec("cry", 2, 1, _ctrl(_ry), num_controls=1))
_register(GateSpec("crz", 2, 1, _ctrl(_rz), num_controls=1))
_register(GateSpec("cu3", 2, 3, _ctrl(_u3), num_controls=1))
_register(GateSpec("ccx", 3, 0, _ctrl(_const(_X), 2), num_controls=2, self_adjoint=True))
_register(GateSpec("ccz", 3, 0, _ctrl(_const(_Z), 2), num_controls=2, self_adjoint=True))
# cswap: control is qubit 0, swap acts on qubits 1,2.
_register(GateSpec("cswap", 3, 0, _ctrl(_const(_SWAP)), num_controls=1, self_adjoint=True))


# ---------------------------------------------------------------------------
# Gate instances
# ---------------------------------------------------------------------------

_MATRIX_CACHE: Dict[Tuple[str, Tuple[float, ...]], np.ndarray] = {}
#: Parameterless gates stay resident; parametric entries are dropped oldest
#: first beyond this many, because a variational loop makes every
#: iteration's angles new keys. The cap only has to outlast the circuits in
#: flight: whoever runs a circuit again right after it was bound (the dense
#: reference of a sweep) still finds its matrices here.
_PARAM_MATRIX_CACHE_MAX = 4096
_PARAM_MATRIX_KEYS: Deque[Tuple[str, Tuple[float, ...]]] = deque()


def gate_matrix(name: str, params: Sequence[float] = ()) -> np.ndarray:
    """Return the cached unitary matrix of a named gate for given params."""
    key = (name, tuple(float(x) for x in params))
    m = _MATRIX_CACHE.get(key)
    if m is None:
        spec = GATE_SET.get(name)
        if spec is None:
            raise KeyError(f"unknown gate {name!r}")
        if len(key[1]) != spec.num_params:
            raise ValueError(
                f"gate {name!r} expects {spec.num_params} params, got {len(key[1])}"
            )
        m = spec.matrix_fn(*key[1])
        _MATRIX_CACHE[key] = m
        if key[1]:
            _PARAM_MATRIX_KEYS.append(key)
            if len(_PARAM_MATRIX_KEYS) > _PARAM_MATRIX_CACHE_MAX:
                # pop, not del: two threads may have queued one key twice
                _MATRIX_CACHE.pop(_PARAM_MATRIX_KEYS.popleft(), None)
    return m


@dataclass(frozen=True)
class Gate:
    """One gate application inside a circuit.

    ``qubits`` lists controls first (for named controlled gates), then
    targets; the first listed qubit is the least-significant axis of
    :attr:`matrix`.
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = ()
    _matrix: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    _diag: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubits in gate {self.name}: {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in gate {self.name}: {self.qubits}")

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def matrix(self) -> np.ndarray:
        """Dense unitary over this gate's qubits (little-endian).

        For stored-diagonal gates this *densifies*; executors should check
        :attr:`diag` first and use the diagonal fast path.
        """
        if self._matrix is not None:
            return self._matrix
        if self._diag is not None:
            return np.diag(self._diag)
        return gate_matrix(self.name, self.params)

    @property
    def diag(self) -> Optional[np.ndarray]:
        """Stored diagonal for compact diagonal gates, else ``None``."""
        return self._diag

    @property
    def spec(self) -> Optional[GateSpec]:
        return GATE_SET.get(self.name)

    @property
    def num_controls(self) -> int:
        spec = self.spec
        return spec.num_controls if spec is not None else 0

    @property
    def is_diagonal(self) -> bool:
        return is_diagonal(self.matrix)

    @property
    def is_permutation(self) -> bool:
        return is_permutation(self.matrix)

    def adjoint(self) -> "Gate":
        """Return the inverse gate (named where possible, unitary otherwise)."""
        if self._diag is not None:
            return Gate("diagonal", self.qubits, _diag=self._diag.conj())
        spec = self.spec
        if spec is not None and spec.self_adjoint:
            return self
        inverse_names = {
            "s": "sdg",
            "sdg": "s",
            "t": "tdg",
            "tdg": "t",
            "sx": "sxdg",
            "sxdg": "sx",
        }
        if self.name in inverse_names:
            return Gate(inverse_names[self.name], self.qubits)
        if spec is not None and spec.num_params and self.name in {
            "rx",
            "ry",
            "rz",
            "p",
            "u1",
            "rxx",
            "ryy",
            "rzz",
            "cp",
            "cu1",
            "crx",
            "cry",
            "crz",
            "gphase",
        }:
            return Gate(self.name, self.qubits, tuple(-p for p in self.params))
        if self.name == "iswap":
            return Gate("unitary", self.qubits, _matrix=adjoint_matrix(_ISWAP))
        return Gate("unitary", self.qubits, _matrix=adjoint_matrix(self.matrix))

    def remapped(self, mapping: Dict[int, int]) -> "Gate":
        """Return a copy acting on ``mapping[q]`` for each qubit ``q``."""
        return Gate(
            self.name,
            tuple(mapping[q] for q in self.qubits),
            self.params,
            _matrix=self._matrix,
            _diag=self._diag,
            label=self.label,
        )

    def __str__(self) -> str:
        ps = f"({', '.join(f'{p:g}' for p in self.params)})" if self.params else ""
        qs = ", ".join(str(q) for q in self.qubits)
        return f"{self.name}{ps} q[{qs}]"


def make_diagonal_gate(qubits: Sequence[int], diag: np.ndarray,
                       name: str = "diagonal") -> Gate:
    """Create a compact diagonal gate from its diagonal vector.

    ``diag[t]`` multiplies amplitudes whose bits on ``qubits`` spell ``t``
    (first listed qubit = least significant bit of ``t``). Entries must have
    unit modulus (the gate must be unitary). Storage is ``O(2^k)`` for a
    ``k``-qubit diagonal instead of ``O(4^k)`` dense — this is how wide
    oracles (e.g. Grover's phase flip) stay cheap.
    """
    qubits = tuple(int(q) for q in qubits)
    d = np.ascontiguousarray(np.asarray(diag, dtype=_CDTYPE))
    if d.shape != (1 << len(qubits),):
        raise ValueError(f"diag length {d.shape} != 2^{len(qubits)}")
    if not np.allclose(np.abs(d), 1.0, atol=1e-10):
        raise ValueError("diagonal gate entries must have unit modulus")
    d.setflags(write=False)
    return Gate(name, qubits, _diag=d)


def make_gate(
    name: str,
    qubits: Sequence[int],
    params: Sequence[float] = (),
    matrix: Optional[np.ndarray] = None,
) -> Gate:
    """Validated gate constructor used by :class:`~repro.circuits.Circuit`.

    Either ``name`` must be a registered gate (arity and parameter count are
    checked), or ``name`` may be ``"unitary"`` with an explicit ``matrix``.
    """
    qubits = tuple(int(q) for q in qubits)
    params = tuple(float(p) for p in params)
    if matrix is not None:
        dim = matrix.shape[0]
        if matrix.shape != (dim, dim) or dim != 2 ** len(qubits):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match {len(qubits)} qubits"
            )
        if not is_unitary(matrix):
            raise ValueError("explicit gate matrix is not unitary")
        m = np.ascontiguousarray(matrix, dtype=_CDTYPE)
        m.setflags(write=False)
        return Gate(name, qubits, params, _matrix=m)
    spec = GATE_SET.get(name)
    if spec is None:
        raise KeyError(f"unknown gate {name!r} and no matrix supplied")
    if spec.num_qubits != len(qubits):
        raise ValueError(
            f"gate {name!r} acts on {spec.num_qubits} qubits, got {len(qubits)}"
        )
    if spec.num_params != len(params):
        raise ValueError(
            f"gate {name!r} expects {spec.num_params} params, got {len(params)}"
        )
    return Gate(name, qubits, params)
