"""Pluggable kernel backends — the paper's modularity contribution.

MEMQSim "is independent of ... simulation computational tasks" and can be
plugged into different simulator backends (SV-Sim, Qiskit, ...). Here that
boundary is a one-method interface: a :class:`Backend` applies a batch of
gates to an amplitude buffer. The chunked pipeline never touches amplitudes
except through a backend, so swapping the update engine swaps nothing else.

Two implementations ship (a run builds the first; a new engine is a
:class:`Backend` subclass handed to :class:`~repro.device.DeviceExecutor`):

* :class:`NumpyKernelBackend` — the production strided/matmul kernels from
  :mod:`repro.statevector.kernels` (the SV-Sim stand-in);
* :class:`EinsumBackend` — an independent tensor-contraction engine used to
  cross-validate the kernels in tests (different code path, same numbers).
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from ..circuits.gates import Gate
from ..statevector.kernels import apply_circuit_gate, apply_stored_diagonal, num_qubits_of

__all__ = [
    "Backend",
    "NumpyKernelBackend",
    "EinsumBackend",
    "MixedPrecisionBackend",
]


class Backend(abc.ABC):
    """Applies gate batches to amplitude buffers, in place."""

    @abc.abstractmethod
    def apply(self, buf: np.ndarray, gates: Sequence[Gate]) -> None:
        """Apply ``gates`` in order to ``buf`` (length ``2^m``), in place."""

    def apply_ops(self, buf: np.ndarray, ops: Sequence[object]) -> None:
        """Apply a batch of compiled ops (:mod:`repro.compile` IR), in place.

        The default lowers each op to its :class:`Gate` and delegates to
        :meth:`apply`, so every backend — including the einsum
        cross-validator — consumes the compiled plan without knowing the
        IR. Raw :class:`Gate` items are accepted too.
        """
        self.apply(buf, [op.to_gate() if hasattr(op, "to_gate") else op
                         for op in ops])


class NumpyKernelBackend(Backend):
    """Default: strided fast paths + single-matmul generic kernel."""

    def apply(self, buf: np.ndarray, gates: Sequence[Gate]) -> None:
        for g in gates:
            apply_circuit_gate(buf, g)

    def apply_ops(self, buf: np.ndarray, ops: Sequence[object]) -> None:
        """One kernel launch per op. An op lowered by a
        :class:`~repro.pipeline.StageProgram` brings its prepared launch
        (made for this buffer width; any other fails its reshape); a bare
        op or a raw :class:`Gate` goes through the one-shot dispatch."""
        for op in ops:
            launch = getattr(op, "launch", None)
            if launch is not None:
                launch(buf)
            else:
                apply_circuit_gate(
                    buf, op.to_gate() if hasattr(op, "to_gate") else op)


class EinsumBackend(Backend):
    """Reference engine: every gate as an einsum tensor contraction."""

    def apply(self, buf: np.ndarray, gates: Sequence[Gate]) -> None:
        m = num_qubits_of(buf)
        for g in gates:
            if g.diag is not None:
                apply_stored_diagonal(buf, g.diag, g.qubits)
                continue
            k = len(g.qubits)
            tensor = buf.reshape((2,) * m)
            gt = g.matrix.reshape((2,) * (2 * k))
            # Gate tensor axes: first k are output (MSB-first within the
            # gate), last k are input. Little-endian gate qubits mean the
            # first listed qubit is the least significant — axis order in
            # the reshaped matrix is MSB first, so reverse.
            in_axes = [m - 1 - q for q in reversed(g.qubits)]
            out = np.einsum(
                gt,
                list(range(2 * k)),
                tensor,
                self._axes_spec(m, k, in_axes),
                self._out_spec(m, k, in_axes),
                optimize=True,
            )
            buf[...] = np.ascontiguousarray(out).reshape(-1)

    @staticmethod
    def _axes_spec(m: int, k: int, in_axes) -> list:
        # State tensor labels: fresh label for every axis; contracted axes
        # get the gate's input labels (k .. 2k-1).
        labels = list(range(2 * k, 2 * k + m))
        for i, ax in enumerate(in_axes):
            labels[ax] = k + i
        return labels

    @staticmethod
    def _out_spec(m: int, k: int, in_axes) -> list:
        labels = list(range(2 * k, 2 * k + m))
        for i, ax in enumerate(in_axes):
            labels[ax] = i  # replaced by the gate's output labels
        return labels


class MixedPrecisionBackend(Backend):
    """Wrapper implementing ``precision="mixed"``: c64 at rest, c128 compute.

    The streamed buffers arrive in complex64 (half the bytes on every
    tier edge); this wrapper upcasts the group buffer to complex128,
    runs the whole op batch at full precision through the inner backend,
    and rounds once back into the caller's buffer. Rounding error is one
    float32 quantization per stage pass instead of one per gate.
    """

    def __init__(self, inner: Backend):
        self.inner = inner

    def apply(self, buf: np.ndarray, gates: Sequence[Gate]) -> None:
        self._with_upcast(buf, lambda hi: self.inner.apply(hi, gates))

    def apply_ops(self, buf: np.ndarray, ops: Sequence[object]) -> None:
        self._with_upcast(buf, lambda hi: self.inner.apply_ops(hi, ops))

    @staticmethod
    def _with_upcast(buf: np.ndarray, run) -> None:
        if buf.dtype == np.complex128:
            run(buf)  # already full precision (e.g. oracle comparisons)
            return
        hi = buf.astype(np.complex128)
        run(hi)
        np.copyto(buf, hi.astype(buf.dtype))
