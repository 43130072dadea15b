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
    "apply_gate_list",
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
# Single-qubit fast paths
# ---------------------------------------------------------------------------

def apply_1q(buf: np.ndarray, matrix: np.ndarray, qubit: int) -> None:
    """Apply a 2x2 unitary to ``qubit`` of ``buf`` in place."""
    stride = 1 << qubit
    view = buf.reshape(-1, 2, stride)
    a = view[:, 0, :]
    b = view[:, 1, :]
    m00, m01, m10, m11 = matrix[0, 0], matrix[0, 1], matrix[1, 0], matrix[1, 1]
    if m01 == 0 and m10 == 0:
        # Diagonal: pure in-place scaling.
        if m00 != 1:
            a *= m00
        if m11 != 1:
            b *= m11
        return
    if m00 == 0 and m11 == 0 and m01 == 1 and m10 == 1:
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
    # Diagonal fast path for multi-qubit gates (cz, cp, rzz, ccz, ...).
    d = np.diag(matrix)
    if np.count_nonzero(matrix) == np.count_nonzero(d):
        apply_diagonal(buf, d, qubits)
        return
    apply_matrix_generic(buf, matrix, qubits)


def apply_gate_list(
    buf: np.ndarray,
    gates: Sequence[Tuple[np.ndarray, Tuple[int, ...]]],
) -> None:
    """Apply ``(matrix, qubits)`` pairs in order — the executor's batch entry."""
    for matrix, qubits in gates:
        apply_gate(buf, matrix, qubits)


# ---------------------------------------------------------------------------
# Gate fusion helper
# ---------------------------------------------------------------------------

def fuse_1q_matrices(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Multiply a chain of 2x2 matrices applied first-to-last into one."""
    out = np.eye(2, dtype=np.complex128)
    for m in matrices:
        out = m @ out
    return out
