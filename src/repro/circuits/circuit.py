"""The :class:`Circuit` container.

A circuit is an ordered list of :class:`~repro.circuits.gates.Gate`
applications on ``num_qubits`` qubits, with a fluent builder API::

    c = Circuit(3)
    c.h(0).cx(0, 1).cx(1, 2)

Circuits support composition, inversion, slicing, qubit remapping, gate
statistics, and conversion to a full unitary (for small qubit counts, used by
tests). Measurement is *not* part of the gate stream — simulators expose
sampling and collapse separately — keeping the IR purely unitary, which is
what the chunked pipeline schedules.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .gates import Gate, make_diagonal_gate, make_gate

__all__ = ["Circuit"]


class Circuit:
    """An ordered sequence of gates on a fixed-size qubit register."""

    def __init__(self, num_qubits: int, gates: Optional[Iterable[Gate]] = None, name: str = ""):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._gates: List[Gate] = []
        # shape_and_values() as of the gate count it was taken at: gates
        # are frozen and only ever appended, so the count dates it
        self._identity: Optional[Tuple[int, Tuple[str, bytes]]] = None
        if gates is not None:
            for g in gates:
                self.append(g)

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Circuit(self.num_qubits, self._gates[idx], name=self.name)
        return self._gates[idx]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        if self.num_qubits != other.num_qubits or len(self) != len(other):
            return False
        for a, b in zip(self._gates, other._gates):
            if a.name != b.name or a.qubits != b.qubits:
                return False
            if not np.allclose(a.params, b.params):
                return False
        return True

    @property
    def gates(self) -> Tuple[Gate, ...]:
        return tuple(self._gates)

    # -- building -----------------------------------------------------------

    def append(self, gate: Gate) -> "Circuit":
        if any(q >= self.num_qubits for q in gate.qubits):
            raise ValueError(
                f"gate {gate} out of range for {self.num_qubits}-qubit circuit"
            )
        self._gates.append(gate)
        return self

    def add(self, name: str, *qubits: int, params: Sequence[float] = (),
            matrix: Optional[np.ndarray] = None) -> "Circuit":
        return self.append(make_gate(name, qubits, params, matrix))

    def unitary(self, matrix: np.ndarray, *qubits: int) -> "Circuit":
        """Append an arbitrary-unitary gate on ``qubits``."""
        return self.append(make_gate("unitary", qubits, (), matrix))

    def diagonal(self, diag: np.ndarray, *qubits: int) -> "Circuit":
        """Append a compact diagonal gate given by its diagonal vector."""
        return self.append(make_diagonal_gate(qubits, diag))

    # Named builder methods for the full standard set. Parametric gates take
    # the angle(s) first, then qubits, mirroring OpenQASM argument order.

    def i(self, q: int) -> "Circuit":
        return self.add("id", q)

    def x(self, q: int) -> "Circuit":
        return self.add("x", q)

    def y(self, q: int) -> "Circuit":
        return self.add("y", q)

    def z(self, q: int) -> "Circuit":
        return self.add("z", q)

    def h(self, q: int) -> "Circuit":
        return self.add("h", q)

    def s(self, q: int) -> "Circuit":
        return self.add("s", q)

    def sdg(self, q: int) -> "Circuit":
        return self.add("sdg", q)

    def t(self, q: int) -> "Circuit":
        return self.add("t", q)

    def tdg(self, q: int) -> "Circuit":
        return self.add("tdg", q)

    def sx(self, q: int) -> "Circuit":
        return self.add("sx", q)

    def sxdg(self, q: int) -> "Circuit":
        return self.add("sxdg", q)

    def rx(self, theta: float, q: int) -> "Circuit":
        return self.add("rx", q, params=(theta,))

    def ry(self, theta: float, q: int) -> "Circuit":
        return self.add("ry", q, params=(theta,))

    def rz(self, theta: float, q: int) -> "Circuit":
        return self.add("rz", q, params=(theta,))

    def p(self, lam: float, q: int) -> "Circuit":
        return self.add("p", q, params=(lam,))

    def u(self, theta: float, phi: float, lam: float, q: int) -> "Circuit":
        return self.add("u3", q, params=(theta, phi, lam))

    def cx(self, ctrl: int, tgt: int) -> "Circuit":
        return self.add("cx", ctrl, tgt)

    def cy(self, ctrl: int, tgt: int) -> "Circuit":
        return self.add("cy", ctrl, tgt)

    def cz(self, ctrl: int, tgt: int) -> "Circuit":
        return self.add("cz", ctrl, tgt)

    def ch(self, ctrl: int, tgt: int) -> "Circuit":
        return self.add("ch", ctrl, tgt)

    def cp(self, lam: float, ctrl: int, tgt: int) -> "Circuit":
        return self.add("cp", ctrl, tgt, params=(lam,))

    def crx(self, theta: float, ctrl: int, tgt: int) -> "Circuit":
        return self.add("crx", ctrl, tgt, params=(theta,))

    def cry(self, theta: float, ctrl: int, tgt: int) -> "Circuit":
        return self.add("cry", ctrl, tgt, params=(theta,))

    def crz(self, theta: float, ctrl: int, tgt: int) -> "Circuit":
        return self.add("crz", ctrl, tgt, params=(theta,))

    def swap(self, a: int, b: int) -> "Circuit":
        return self.add("swap", a, b)

    def iswap(self, a: int, b: int) -> "Circuit":
        return self.add("iswap", a, b)

    def rxx(self, theta: float, a: int, b: int) -> "Circuit":
        return self.add("rxx", a, b, params=(theta,))

    def ryy(self, theta: float, a: int, b: int) -> "Circuit":
        return self.add("ryy", a, b, params=(theta,))

    def rzz(self, theta: float, a: int, b: int) -> "Circuit":
        return self.add("rzz", a, b, params=(theta,))

    def fsim(self, theta: float, phi: float, a: int, b: int) -> "Circuit":
        return self.add("fsim", a, b, params=(theta, phi))

    def ccx(self, c1: int, c2: int, tgt: int) -> "Circuit":
        return self.add("ccx", c1, c2, tgt)

    def ccz(self, c1: int, c2: int, tgt: int) -> "Circuit":
        return self.add("ccz", c1, c2, tgt)

    def cswap(self, ctrl: int, a: int, b: int) -> "Circuit":
        return self.add("cswap", ctrl, a, b)

    # -- transformations ------------------------------------------------------

    def compose(self, other: "Circuit") -> "Circuit":
        """Return a new circuit running ``self`` then ``other``."""
        if other.num_qubits > self.num_qubits:
            raise ValueError("composed circuit acts on more qubits")
        out = Circuit(self.num_qubits, self._gates, name=self.name)
        for g in other:
            out.append(g)
        return out

    def inverse(self) -> "Circuit":
        """Return the adjoint circuit (gates reversed and inverted)."""
        return Circuit(
            self.num_qubits,
            (g.adjoint() for g in reversed(self._gates)),
            name=f"{self.name}_inv" if self.name else "",
        )

    def remapped(self, mapping: Dict[int, int], num_qubits: Optional[int] = None) -> "Circuit":
        """Return a copy with qubits relabelled through ``mapping``."""
        n = num_qubits if num_qubits is not None else self.num_qubits
        return Circuit(n, (g.remapped(mapping) for g in self._gates), name=self.name)

    def repeated(self, times: int) -> "Circuit":
        out = Circuit(self.num_qubits, name=self.name)
        for _ in range(times):
            for g in self._gates:
                out.append(g)
        return out

    # -- identity -------------------------------------------------------------

    def shape_and_values(self) -> Tuple[str, bytes]:
        """The circuit's identity, split in one pass: ``(shape, values)``.

        *Shape* (hex sha256) covers the qubit count and, per gate in order:
        name, qubits, parameter count, and — for gates carrying an explicit
        matrix or stored diagonal ("unitary"/"diagonal" gates, whose
        name+params do not determine the operator) — the exact operator
        bytes. It is everything the planner and the compile passes decide
        on, so it keys plan templates. *Values* are the parameters of every
        gate in order, as little-endian float64 bytes: identity is bitwise
        (``-0.0`` is not ``0.0``), as the matrices built from them are.

        Both are stable across processes and platforms (no Python
        ``hash()``, fixed-width encoding). The circuit ``name`` is
        deliberately excluded: it is provenance, not structure. Kept until
        the next gate is appended (a rerun of one circuit hashes nothing).
        """
        import hashlib
        import struct

        memo = self._identity
        if memo is not None and memo[0] == len(self._gates):
            return memo[1]

        h = hashlib.sha256(b"repro.circuit.shape/v1")
        h.update(struct.pack("<q", self.num_qubits))
        values: List[float] = []
        for g in self._gates:
            qubits = g.qubits
            h.update(g.name.encode())
            h.update(struct.pack(f"<{len(qubits) + 2}q", len(qubits),
                                 *qubits, len(g.params)))
            values.extend(g.params)
            # Only unitary/diagonal payload gates need operator bytes —
            # every named gate's matrix is a pure function of name+params.
            if g.diag is not None:
                h.update(b"diag")
                h.update(np.ascontiguousarray(
                    g.diag, dtype=np.complex128).tobytes())
            elif g._matrix is not None:
                h.update(b"mat")
                h.update(np.ascontiguousarray(
                    g._matrix, dtype=np.complex128).tobytes())
        identity = h.hexdigest(), struct.pack(f"<{len(values)}d", *values)
        self._identity = (len(self._gates), identity)
        return identity

    def structural_hash(self) -> str:
        """Content hash of shape *and* values (hex sha256).

        Two circuits hash equal iff they apply the same operators to the
        same qubits in the same order (see :meth:`shape_and_values`, which
        it is derived from).
        """
        import hashlib

        shape, values = self.shape_and_values()
        return hashlib.sha256(
            b"repro.circuit/v2" + shape.encode() + values).hexdigest()

    # -- statistics -----------------------------------------------------------

    def gate_counts(self) -> Counter:
        return Counter(g.name for g in self._gates)

    def count_ops(self) -> Dict[str, int]:
        return dict(self.gate_counts())

    def depth(self) -> int:
        """Circuit depth: longest chain of gates sharing a qubit."""
        level = [0] * self.num_qubits
        for g in self._gates:
            d = max(level[q] for q in g.qubits) + 1
            for q in g.qubits:
                level[q] = d
        return max(level) if self._gates else 0

    def two_qubit_count(self) -> int:
        return sum(1 for g in self._gates if g.num_qubits >= 2)

    def qubits_used(self) -> Tuple[int, ...]:
        used = set()
        for g in self._gates:
            used.update(g.qubits)
        return tuple(sorted(used))

    def max_qubit_touched(self) -> int:
        """Highest qubit index any gate touches (-1 for an empty circuit)."""
        return max((max(g.qubits) for g in self._gates), default=-1)

    # -- dense unitary (test/debug path; exponential in num_qubits) -----------

    def to_unitary(self) -> np.ndarray:
        """Full ``2^n x 2^n`` unitary of the circuit (little-endian).

        Only intended for small ``n`` in tests; the simulators never call it.
        """
        n = self.num_qubits
        if n > 12:
            raise ValueError("to_unitary is only for small circuits (n <= 12)")
        dim = 1 << n
        u = np.eye(dim, dtype=np.complex128)
        # Apply each gate to the columns of u (each column is a state).
        # Kernels need contiguous buffers, so stage each column through one.
        from ..core.backend import NumpyKernelBackend  # avoid cycle

        be = NumpyKernelBackend()
        col = np.empty(dim, dtype=np.complex128)
        for j in range(dim):
            col[:] = u[:, j]
            be.apply(col, self._gates)
            u[:, j] = col
        return u

    def __str__(self) -> str:
        hdr = f"Circuit(name={self.name!r}, n={self.num_qubits}, gates={len(self)})"
        body = "\n".join(f"  {g}" for g in self._gates[:50])
        more = f"\n  ... ({len(self) - 50} more)" if len(self) > 50 else ""
        return f"{hdr}\n{body}{more}" if self._gates else hdr

    def __repr__(self) -> str:
        return f"<Circuit {self.name!r} n={self.num_qubits} gates={len(self)} depth={self.depth()}>"
