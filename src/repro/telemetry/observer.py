"""The one seam between the group loop and everything that watches it.

:class:`~repro.pipeline.scheduler.StageScheduler` tells a
:class:`PassObserver` where the run stands — a stage opens and closes, a
group pass opens (with the chunks it streams) and closes, a permutation
barrier is crossed, a device buffer is live — and knows nothing of who
listens. :class:`PassObserver` itself listens to nothing: it is the null
implementation, shared as :data:`NULL_OBSERVER`, and costs the loop two
calls per group pass. :class:`RunObserver` is what an enabled
:class:`~repro.telemetry.Telemetry` hands a run
(:meth:`~repro.telemetry.Telemetry.observer`): the only code that knows
the ledger's pass context, the ``stage`` / ``group_pass`` spans, the
progress tracker, the event bus, the access recorder and the resource
monitor exist.

Pipeline *hops* (a codec call, a copy, a kernel batch) do not pass through
here: the layer that runs one times it and books it as a row of the run's
:class:`~repro.device.timeline.Timeline`, and nothing else. An export draws
the rows as spans when it is made (:meth:`~repro.telemetry.Tracer.attach`).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Tuple

__all__ = ["PassObserver", "NULL_OBSERVER", "RunObserver"]

_NOTHING = nullcontext()


class PassObserver:
    """What the group loop reports; this base hears none of it."""

    def stage(self, index: int, kind: str, **attrs):
        """Context around stage ``index`` (``kind`` = ``"gate"`` |
        ``"permutation"``; ``attrs`` describe it)."""
        return _NOTHING

    def group_pass(self, stage: int, group: int, members: Tuple[int, ...],
                   nbytes: int):
        """Context around one group pass: every chunk of ``members`` is
        read, updated on the device and written."""
        return _NOTHING

    def barrier(self, stage: int) -> None:
        """Permutation stage ``stage`` is about to relabel chunk ids."""

    def device_buffer_live(self) -> None:
        """A group's amplitudes sit in device memory right now."""


#: the shared observer of a run nobody watches
NULL_OBSERVER = PassObserver()


class RunObserver(PassObserver):
    """Fans the loop's reports out to an enabled telemetry's sinks.

    Built per run, after the run attached whichever optional sinks it has
    (``access``, ``progress``, ``monitor`` — ``None`` when absent).
    """

    def __init__(self, telemetry):
        self._tracer = telemetry.tracer
        self._emit = telemetry.emit
        self._traffic = telemetry.traffic
        self._access = telemetry.access
        self._progress = telemetry.progress
        self._monitor = telemetry.monitor

    @contextmanager
    def stage(self, index, kind, **attrs):
        self._emit("stage.start", index=index, kind=kind, **attrs)
        progress = self._progress
        if progress is not None:
            progress.stage_started(index)
        with self._tracer.span("stage", index=index, kind=kind, **attrs):
            yield
        if progress is not None and kind == "permutation":
            progress.group_done(index)
        self._emit("stage.end", index=index, kind=kind)
        # Traffic after this point (result queries, flushes between runs)
        # is out-of-stage again.
        self._traffic.set_pass()

    @contextmanager
    def group_pass(self, stage, group, members, nbytes):
        # The ledger attributes what stores, caches and copies record from
        # here on; the access trace is the loop's logical order (all reads,
        # then all writes), whatever a cache or a codec lane reorders.
        self._traffic.set_pass(stage, group)
        access = self._access
        if access is not None:
            for chunk in members:
                access.record(chunk, stage, "r")
        with self._tracer.span("group_pass", stage=stage, group=group,
                               chunks=len(members), nbytes=nbytes):
            yield
        if access is not None:
            for chunk in members:
                access.record(chunk, stage, "w")
        if self._progress is not None:
            self._progress.group_done(stage)
        self._emit("group", stage=stage, group=group, chunks=len(members))

    def barrier(self, stage):
        # Blob relabeling moves no bytes, but a cache in front of the store
        # flushes here: its write-back traffic lands on this stage.
        self._traffic.set_pass(stage)
        if self._access is not None:
            self._access.barrier(stage)

    def device_buffer_live(self):
        # One synchronous resource sample while the buffer is allocated,
        # so the arena-occupancy series rises and falls per group even when
        # passes are shorter than the sample period (the monitor rate-limits
        # it to its own interval).
        if self._monitor is not None:
            self._monitor.poke()
