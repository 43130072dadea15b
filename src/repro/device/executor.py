"""The device executor: runs gate kernels on arena-resident buffers.

This is the "GPU side" of MEMQSim. It owns a :class:`DeviceArena` (capacity-
enforced), a :class:`TransferStrategy`, and a :class:`Timeline`; the pipeline
scheduler asks it to

1. stage a host buffer onto the device (H2D),
2. apply a batch of gates to the resident buffer (KERNEL),
3. bring the result back (D2H),

mirroring steps (2)-(4) of the paper's online stage. Each of the three is
a pipeline hop this layer runs, so this layer times it (the transfer
strategy's ``perf_counter`` pair for a copy, ``run_ops``'s for a kernel
batch) and books it, once, as a row of the timeline — the only record of
it; nothing here reaches for a telemetry sink.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..memory.accounting import MemoryTracker
from ..telemetry import get_logger
from .arena import DeviceArena, DeviceBuffer
from .spec import DeviceSpec
from .timeline import Stage, Timeline
from .transfer import TransferStrategy, make_strategy

__all__ = ["DeviceExecutor"]

log = get_logger(__name__)


class DeviceExecutor:
    """Simulated GPU: arena + transfer engine + kernels."""

    def __init__(
        self,
        spec: Optional[DeviceSpec] = None,
        transfer: Optional[TransferStrategy] = None,
        timeline: Optional[Timeline] = None,
        tracker: Optional[MemoryTracker] = None,
        backend=None,
        arena: Optional[DeviceArena] = None,
    ):
        """``backend`` is a :class:`~repro.core.backend.Backend`; ``None``
        uses the numpy kernels.
        ``arena`` injects an external (possibly shared, multi-tenant)
        :class:`DeviceArena`; the executor then allocates from it but does
        not own it — :meth:`reset` leaves other tenants' buffers alone."""
        self.spec = spec if spec is not None else DeviceSpec()
        self.tracker = tracker if tracker is not None else MemoryTracker()
        self._owns_arena = arena is None
        self.arena = arena if arena is not None \
            else DeviceArena(self.spec, self.tracker)
        self.timeline = timeline if timeline is not None else Timeline()
        self.transfer = transfer if transfer is not None else make_strategy("sync")
        if backend is None:
            # Runtime import: core.backend imports the compile/statevector
            # layers, so a module-level import here would be cyclic.
            from ..core.backend import NumpyKernelBackend

            backend = NumpyKernelBackend()
        self.backend = backend

    # -- memory ------------------------------------------------------------

    def alloc(self, num_amplitudes: int, dtype=None) -> DeviceBuffer:
        """Allocate a device buffer (raises DeviceOutOfMemory)."""
        return self.arena.alloc(num_amplitudes, dtype=dtype)

    def free(self, buf: DeviceBuffer) -> None:
        self.arena.free(buf)

    def can_fit(self, num_amplitudes: int) -> bool:
        return self.arena.largest_free_block >= num_amplitudes

    # -- transfers -----------------------------------------------------------

    def upload(self, host: np.ndarray, buf: DeviceBuffer, chunk: int = -1) -> float:
        """H2D: host buffer -> device buffer. Returns seconds."""
        t0 = time.perf_counter()
        dt = self.transfer.h2d(host, buf.view[: host.shape[0]])
        self.timeline.record(Stage.H2D, t0, dt, chunk, -1, host.nbytes)
        return dt

    def download(self, buf: DeviceBuffer, host: np.ndarray, chunk: int = -1) -> float:
        """D2H: device buffer -> host buffer. Returns seconds."""
        t0 = time.perf_counter()
        dt = self.transfer.d2h(buf.view[: host.shape[0]], host)
        self.timeline.record(Stage.D2H, t0, dt, chunk, -1, host.nbytes)
        return dt

    # -- kernels ---------------------------------------------------------------

    def run_ops(self, buf: DeviceBuffer, ops: Sequence[object],
                chunk: int = -1) -> float:
        """Apply a compiled-op batch to a device buffer; returns seconds.

        ``ops`` holds :mod:`repro.compile` IR items (:class:`GateOp` /
        :class:`FusedOp`); raw :class:`~repro.circuits.gates.Gate`
        instances are accepted as well — the backend lowers either form.
        Here and in the copies, ``chunk`` is the group pass the hop belongs
        to: its row's ``group``.
        """
        t0 = time.perf_counter()
        self.backend.apply_ops(buf.view, ops)
        dt = time.perf_counter() - t0
        self.timeline.record(Stage.KERNEL, t0, dt, chunk, -1, buf.nbytes,
                             0, len(ops))
        return dt

    def reset(self) -> None:
        """Release all device memory.

        With an injected shared arena this is a no-op — a bulk arena reset
        would free *other* tenants' live buffers (the scheduler already
        frees its per-pass allocations)."""
        if self._owns_arena:
            self.arena.reset()

    def __repr__(self) -> str:
        return (
            f"<DeviceExecutor {self.spec.name} transfer={self.transfer.name} "
            f"hops={self.timeline.count()}>"
        )
