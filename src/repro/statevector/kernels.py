"""Vectorized amplitude-update kernels.

These functions are the numerical heart of both the dense baseline simulator
and the simulated-GPU executor: they apply a ``k``-qubit unitary to a state
vector (or to any amplitude buffer whose length is a power of two — chunked
execution reuses them on chunk and pair buffers).

Conventions
-----------
* Little-endian: qubit ``q`` is bit ``q`` of the basis index.
* A gate on qubits ``(q0, q1, ..)`` has its *first* listed qubit as the least
  significant axis of its matrix (see :mod:`repro.circuits.gates`).
* All kernels update the buffer **in place** (guide idiom: in-place ops and
  views, not copies), allocating only small per-call temporaries.

Fast paths
----------
* single-qubit gates use a strided 3-D view — no data movement;
* diagonal gates multiply slices by scalars;
* X / SWAP permutations swap slices (pure copies: bit-exact, ``-0.0``
  stays ``-0.0``);
* the generic path reshapes to a ``(2,)*m`` tensor, moves the target axes to
  the front and applies one matmul (one contiguous copy each way).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "apply_gate",
    "apply_matrix_generic",
    "apply_1q",
    "apply_swap",
    "apply_diagonal",
    "apply_stored_diagonal",
    "apply_circuit_gate",
    "prepare_launch",
    "num_qubits_of",
]


def num_qubits_of(buf: np.ndarray) -> int:
    """Number of qubits represented by a power-of-two-length buffer."""
    n = buf.shape[0]
    m = n.bit_length() - 1
    if 1 << m != n:
        raise ValueError(f"buffer length {n} is not a power of two")
    return m


# ---------------------------------------------------------------------------
# Which kernel a matrix takes — the one definition, for the one-shot
# dispatch below and for :func:`prepare_launch`
# ---------------------------------------------------------------------------

def _kind_1q(m00, m01, m10, m11) -> str:
    if m01 == 0 and m10 == 0:
        return "diagonal_1q"
    if m00 == 0 and m11 == 0 and m01 == 1 and m10 == 1:
        return "x"
    return "dense_1q"


def _diagonal_of(matrix: np.ndarray):
    """The diagonal of a multi-qubit ``matrix`` that has nothing off it
    (cz, cp, rzz, ccz, ...), else ``None``."""
    d = np.diag(matrix)
    return d if np.count_nonzero(matrix) == np.count_nonzero(d) else None


# ---------------------------------------------------------------------------
# Single-qubit fast paths
# ---------------------------------------------------------------------------

def apply_1q(buf: np.ndarray, matrix: np.ndarray, qubit: int) -> None:
    """Apply a 2x2 unitary to ``qubit`` of ``buf`` in place."""
    stride = 1 << qubit
    view = buf.reshape(-1, 2, stride)
    a = view[:, 0, :]
    b = view[:, 1, :]
    m00, m01, m10, m11 = matrix[0, 0], matrix[0, 1], matrix[1, 0], matrix[1, 1]
    kind = _kind_1q(m00, m01, m10, m11)
    if kind == "diagonal_1q":
        # Pure in-place scaling.
        if m00 != 1:
            a *= m00
        if m11 != 1:
            b *= m11
        return
    if kind == "x":
        # Pauli-X: slice swap without a full temp copy of both halves.
        tmp = a.copy()
        a[...] = b
        b[...] = tmp
        return
    new_a = m00 * a + m01 * b
    b *= m11
    b += m10 * a
    a[...] = new_a


def apply_swap(buf: np.ndarray, a: int, b: int) -> None:
    """Exchange qubits ``a`` and ``b`` of ``buf`` in place.

    The amplitudes whose two bits differ trade places; nothing is
    multiplied, so every value keeps its exact bit pattern.
    """
    lo, hi = (a, b) if a < b else (b, a)
    view = buf.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    x = view[:, 0, :, 1, :]
    y = view[:, 1, :, 0, :]
    tmp = x.copy()
    x[...] = y
    y[...] = tmp


def apply_diagonal(buf: np.ndarray, diag: np.ndarray, qubits: Sequence[int]) -> None:
    """Apply a diagonal gate given by its diagonal vector ``diag``.

    ``diag`` has length ``2^k``; entry ``t`` multiplies amplitudes whose bits
    on ``qubits`` spell ``t`` (first listed qubit = least significant bit of
    ``t``).
    """
    m = num_qubits_of(buf)
    k = len(qubits)
    tensor = buf.reshape((2,) * m)
    for t in range(1 << k):
        factor = diag[t]
        if factor == 1:
            continue
        idx = [slice(None)] * m
        for j, q in enumerate(qubits):
            idx[m - 1 - q] = (t >> j) & 1
        tensor[tuple(idx)] *= factor


#: memoized wide-diagonal gather tables, keyed (num_qubits, qubits tuple).
#: The chunk loop applies the same diagonal op to every chunk of a group, so
#: the table is identical across calls; bounded so pathological gate variety
#: cannot grow it without limit.
_DIAG_GATHER_CACHE: dict = {}
_DIAG_GATHER_CACHE_MAX = 64


def _diag_gather_table(m: int, qubits: tuple) -> np.ndarray:
    key = (m, qubits)
    t = _DIAG_GATHER_CACHE.get(key)
    if t is None:
        idx = np.arange(1 << m, dtype=np.int64)
        t = np.zeros_like(idx)
        for j, q in enumerate(qubits):
            t |= ((idx >> q) & 1) << j
        if len(_DIAG_GATHER_CACHE) >= _DIAG_GATHER_CACHE_MAX:
            _DIAG_GATHER_CACHE.clear()
        _DIAG_GATHER_CACHE[key] = t
    return t


def apply_stored_diagonal(buf: np.ndarray, diag: np.ndarray,
                          qubits: Sequence[int]) -> None:
    """Apply a diagonal gate of any width, including the full register.

    Wide diagonals (e.g. Grover oracles over all qubits) use a vectorized
    gather of the diagonal instead of ``2^k`` slice updates; the gather
    index table is memoized across the per-chunk loop.
    """
    m = num_qubits_of(buf)
    k = len(qubits)
    if k <= 3:
        apply_diagonal(buf, diag, qubits)
        return
    if tuple(qubits) == tuple(range(m)):
        buf *= diag
        return
    buf *= diag[_diag_gather_table(m, tuple(qubits))]


def apply_circuit_gate(buf: np.ndarray, gate) -> None:
    """Apply a :class:`~repro.circuits.gates.Gate`, using the compact
    diagonal representation when the gate stores one."""
    d = getattr(gate, "diag", None)
    if d is not None:
        apply_stored_diagonal(buf, d, gate.qubits)
    elif gate.name == "swap":
        apply_swap(buf, *gate.qubits)
    else:
        apply_gate(buf, gate.matrix, gate.qubits)


# ---------------------------------------------------------------------------
# Generic k-qubit path
# ---------------------------------------------------------------------------

def apply_matrix_generic(
    buf: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]
) -> None:
    """Apply a ``2^k x 2^k`` unitary to ``qubits`` of ``buf`` in place.

    Works for any k < m. One matmul over a gathered ``(2^k, 2^(m-k))`` view.
    """
    m = num_qubits_of(buf)
    k = len(qubits)
    tensor = buf.reshape((2,) * m)
    # Axis of qubit q is (m - 1 - q); gather axes most-significant-gate-bit
    # first so the flattened row index equals the gate-matrix index.
    axes = [m - 1 - q for q in reversed(qubits)]
    moved = np.moveaxis(tensor, axes, range(k))
    shape = moved.shape
    flat = np.ascontiguousarray(moved).reshape(1 << k, -1)
    moved[...] = (matrix @ flat).reshape(shape)


def apply_gate(
    buf: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int | None = None,
) -> None:
    """Dispatch to the best kernel for this gate.

    Args:
        buf: amplitude buffer of length ``2^m`` (modified in place).
        matrix: the gate's ``2^k x 2^k`` unitary.
        qubits: gate qubits (little-endian positions within ``buf``).
        num_qubits: optional sanity-check value for ``m``.
    """
    if num_qubits is not None and buf.shape[0] != 1 << num_qubits:
        raise ValueError(
            f"buffer length {buf.shape[0]} != 2^{num_qubits}"
        )
    k = len(qubits)
    if k == 1:
        apply_1q(buf, matrix, qubits[0])
        return
    d = _diagonal_of(matrix)
    if d is not None:
        apply_diagonal(buf, d, qubits)
        return
    apply_matrix_generic(buf, matrix, qubits)


# ---------------------------------------------------------------------------
# Prepared launches: everything above that does not depend on the
# amplitudes, done once
# ---------------------------------------------------------------------------

def _split_axes(m: int, qubits: Sequence[int]) -> Tuple[tuple, dict]:
    """``(shape, axis of each qubit)`` of a ``2^m`` buffer reshaped so that
    only ``qubits`` get an axis of their own: ``2k + 1`` axes, the runs of
    bits between the targets merged (some of size 1)."""
    shape, axis_of, top = [], {}, m
    for q in sorted(qubits, reverse=True):
        shape += [1 << (top - 1 - q), 2]
        axis_of[q] = len(shape) - 1
        top = q
    shape.append(1 << top)
    return tuple(shape), axis_of


def _launch_1q(matrix: np.ndarray, m: int, qubit: int):
    """``(kind, run)``: the branch of :func:`apply_1q` the matrix takes."""
    shape, _ = _split_axes(m, (qubit,))
    m00, m01, m10, m11 = matrix[0, 0], matrix[0, 1], matrix[1, 0], matrix[1, 1]
    kind = _kind_1q(m00, m01, m10, m11)
    if kind == "diagonal_1q":
        scale = [(half, factor) for half, factor in ((0, m00), (1, m11))
                 if factor != 1]

        def run(buf):
            view = buf.reshape(shape)
            for half, factor in scale:
                part = view[:, half, :]
                part *= factor
    elif kind == "x":
        def run(buf):
            view = buf.reshape(shape)
            a = view[:, 0, :]
            b = view[:, 1, :]
            tmp = a.copy()
            a[...] = b
            b[...] = tmp
    else:
        def run(buf):
            view = buf.reshape(shape)
            a = view[:, 0, :]
            b = view[:, 1, :]
            # apply_1q's products and sums, two temporaries instead of four
            new_a = m00 * a
            tmp = m01 * b
            new_a += tmp
            b *= m11
            np.multiply(m10, a, out=tmp)
            b += tmp
            a[...] = new_a
    return kind, run


def _launch_swap(m: int, a: int, b: int):
    shape, _ = _split_axes(m, (a, b))

    def run(buf):
        view = buf.reshape(shape)
        x = view[:, 0, :, 1, :]
        y = view[:, 1, :, 0, :]
        tmp = x.copy()
        x[...] = y
        y[...] = tmp
    return run


def _launch_diagonal(m: int, diag: np.ndarray, qubits: Sequence[int]):
    """:func:`apply_diagonal` with the slice tuple of every non-unit factor
    made beforehand."""
    shape, axis_of = _split_axes(m, qubits)
    terms = []
    for t in range(1 << len(qubits)):
        factor = diag[t]
        if factor == 1:
            continue
        idx = [slice(None)] * len(shape)
        for j, q in enumerate(qubits):
            idx[axis_of[q]] = (t >> j) & 1
        terms.append((tuple(idx), factor))

    def run(buf):
        tensor = buf.reshape(shape)
        for idx, factor in terms:
            # A view even when every bit is a target: the merged runs keep
            # their (size-1) axes, so the product lands in ``buf``.
            part = tensor[idx]
            part *= factor
    return run


def _launch_stored_diagonal(m: int, diag: np.ndarray, qubits: tuple):
    if len(qubits) <= 3:
        return _launch_diagonal(m, diag, qubits)
    # A buffer of another length fails to broadcast against either form.
    if qubits == tuple(range(m)):
        def run(buf):
            buf *= diag
        return run
    table = _diag_gather_table(m, qubits)

    def run(buf):
        buf *= diag[table]
    return run


def _launch_generic(m: int, matrix: np.ndarray, qubits: Sequence[int]):
    shape, axis_of = _split_axes(m, qubits)
    # Target axes most-significant-gate-bit first, as in
    # :func:`apply_matrix_generic`; the merged runs follow in buffer order.
    front = [axis_of[q] for q in reversed(qubits)]
    perm = front + [ax for ax in range(len(shape)) if ax not in front]
    moved_shape = tuple(shape[ax] for ax in perm)
    dim = 1 << len(qubits)
    cols = 1 << (m - len(qubits))

    def run(buf):
        moved = buf.reshape(shape).transpose(perm)
        flat = np.ascontiguousarray(moved).reshape(dim, cols)
        moved[...] = (matrix @ flat).reshape(moved_shape)
    return run


def prepare_launch(gate, m: int):
    """Lower ``gate`` for buffers of ``2^m`` amplitudes: ``launch(buf)``.

    :func:`apply_circuit_gate` finds out on every call which kernel a gate
    takes, which axes it touches and how to slice them; none of that
    depends on the amplitudes. This does it once — the classification
    (``launch.kind``: ``stored_diagonal`` / ``swap`` / ``diagonal_1q`` /
    ``x`` / ``dense_1q`` / ``diagonal`` / ``generic``), a reshape that
    splits the index only at the gate's qubits (``2k + 1`` axes, not
    ``m``), the transpose that brings them to the front, the slice tuple of
    every non-unit diagonal factor, the four scalars of a 2x2 — and returns
    a function that only makes the numpy calls that touch amplitudes: the
    same ones, on the same values, in the same order as the one-shot
    kernels, which stay the reference it is tested against bit for bit.

    A launch serves the width it was made for (``launch.m``) and no other:
    a buffer of any other length fails its reshape.
    """
    qubits = tuple(gate.qubits)
    if any(not 0 <= q < m for q in qubits):
        raise ValueError(f"gate qubits {qubits} outside a {m}-qubit buffer")
    diag = getattr(gate, "diag", None)
    if diag is not None:
        kind, run = "stored_diagonal", _launch_stored_diagonal(m, diag, qubits)
    elif gate.name == "swap":
        kind, run = "swap", _launch_swap(m, *qubits)
    else:
        matrix = gate.matrix
        if len(qubits) == 1:
            kind, run = _launch_1q(matrix, m, qubits[0])
        else:
            d = _diagonal_of(matrix)
            if d is not None:
                kind, run = "diagonal", _launch_diagonal(m, d, qubits)
            else:
                kind, run = "generic", _launch_generic(m, matrix, qubits)
    run.kind = kind
    run.m = m
    return run

