"""The one seam between the group loop and everything that watches it.

:class:`~repro.pipeline.scheduler.StageScheduler` tells a
:class:`PassObserver` where the run stands — a stage opens and closes, a
group pass opens (with the chunks it streams) and closes, a device buffer
is live — and knows nothing of who listens. :class:`PassObserver` itself
listens to nothing: it is the null implementation, shared as
:data:`NULL_OBSERVER`, and costs the loop two calls per group pass.
:class:`RunObserver` is what an enabled :class:`~repro.telemetry.Telemetry`
hands a run (:meth:`~repro.telemetry.Telemetry.observer`): the only code
that knows the ``stage`` / ``group_pass`` spans, the progress tracker, the
event bus and the resource monitor exist. A decompressed-chunk cache in
front of the store reports its flushes here too.

Which chunks a pass streams is the run's pass schedule, fixed before the
loop starts; nothing here records it again. The ``group_pass`` and
permutation ``stage`` spans are what the loop actually ran, in order (the
audit reads them back: :func:`~repro.analysis.audit.executed_access_trace`).

Pipeline *hops* (a codec call, a copy, a kernel batch, a disk-log append)
do not pass through here: the layer that runs one times it and books it as
a row of the run's :class:`~repro.device.timeline.Timeline`, and nothing
else — the pass a row is of included, which the scheduler sets on the
timeline. An export draws the rows as spans when it is made, and the
traffic ledger folds their bytes when it is read
(:meth:`~repro.telemetry.Tracer.attach`).
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

    def device_buffer_live(self) -> None:
        """A group's amplitudes sit in device memory right now."""

    def cache_flushed(self, resident: int, written_back: int) -> None:
        """A chunk cache emptied its ``resident`` chunks, writing back the
        ``written_back`` dirty ones."""


#: the shared observer of a run nobody watches
NULL_OBSERVER = PassObserver()


class RunObserver(PassObserver):
    """Fans the loop's reports out to an enabled telemetry's sinks.

    Built per run, after the run attached whichever optional sinks it has
    (``progress``, ``monitor`` — ``None`` when absent).
    """

    def __init__(self, telemetry):
        self._tracer = telemetry.tracer
        self._emit = telemetry.emit
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

    @contextmanager
    def group_pass(self, stage, group, members, nbytes):
        with self._tracer.span("group_pass", stage=stage, group=group,
                               chunks=len(members), nbytes=nbytes):
            yield
        if self._progress is not None:
            self._progress.group_done(stage)
        self._emit("group", stage=stage, group=group, chunks=len(members))

    def device_buffer_live(self):
        # One synchronous resource sample while the buffer is allocated,
        # so the arena-occupancy series rises and falls per group even when
        # passes are shorter than the sample period (the monitor rate-limits
        # it to its own interval).
        if self._monitor is not None:
            self._monitor.poke()

    def cache_flushed(self, resident, written_back):
        if resident:
            self._emit("cache.flush", resident=resident,
                       written_back=written_back)
