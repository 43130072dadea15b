"""Execution timeline: the measured stage events of a run.

Every unit of work the online stage performs (decompress, H2D, kernel, D2H,
recompress, permutation relabeling) is recorded as a :class:`StageEvent`
with its *measured* duration, once, by the layer that ran it. The run's
serial stage sum and per-stage breakdown are read off it; what the run
took end to end is its stopwatch (``MemQSimResult.online_seconds``). A
modelled overlapped makespan replayed from these events lives in
:mod:`repro.analysis.pipeline_model`, labelled as a what-if.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional

__all__ = ["Stage", "StageEvent", "Timeline"]


class Stage(str, Enum):
    """Pipeline stage kinds (paper Fig. 1 steps)."""

    DECOMPRESS = "decompress"  # (1) chunk blob -> CPU buffer
    H2D = "h2d"                # (2) CPU buffer -> GPU memory
    KERNEL = "kernel"          # (3) GPU amplitude update
    D2H = "d2h"                # (4) GPU -> CPU buffer
    CPU_UPDATE = "cpu_update"  # host-side blob relabeling (permutation hop)
    COMPRESS = "compress"      # (6) CPU buffer -> chunk blob


@dataclass(frozen=True)
class StageEvent:
    """One measured unit of stage work."""

    stage: Stage
    duration: float
    chunk: int  # chunk/group id the work belongs to (-1 = global)
    nbytes: int = 0
    step: int = 0  # monotonically increasing issue order


class Timeline:
    """Ordered log of measured stage events.

    :meth:`record` is the one booking call of a pipeline hop: the layer
    that runs a hop (the chunk store its codec calls, the device executor
    its copies and kernels, the scheduler its blob relabelings) times it
    and records it here, once. ``listener`` — ``listener(event, attrs)`` —
    hears every record; an enabled telemetry installs
    :meth:`~repro.telemetry.Telemetry.hop` there, which is how spans and
    bus events stay a mirror of the timeline and never a second
    measurement.
    """

    def __init__(self, listener: Optional[Callable] = None) -> None:
        self.events: List[StageEvent] = []
        self._step = 0
        self.listener = listener

    def record(self, stage: Stage, duration: float, chunk: int = -1,
               nbytes: int = 0, **attrs) -> StageEvent:
        """Book one hop; ``attrs`` (which chunk, which worker, how many
        gates) go to the listener only."""
        ev = StageEvent(stage, max(0.0, duration), chunk, nbytes, self._step)
        self._step += 1
        self.events.append(ev)
        if self.listener is not None:
            self.listener(ev, attrs)
        return ev

    @classmethod
    def from_spans(cls, spans) -> "Timeline":
        """Rebuild a timeline from telemetry spans named after stages.

        Spans whose ``name`` is a :class:`Stage` value become events (with
        ``chunk``/``nbytes`` read from the span attributes); everything
        else is ignored. Spans are replayed in completion order, which is
        the order the run's timeline booked them in, so a timeline rebuilt
        from a traced run's spans is event-for-event equivalent to the one
        the run populated.
        """
        by_name = {s.value: s for s in Stage}
        tl = cls()
        for sp in sorted(spans, key=lambda s: s.start + s.duration):
            stage = by_name.get(sp.name)
            if stage is None:
                continue
            tl.record(stage, sp.duration, int(sp.args.get("chunk", -1)),
                      int(sp.args.get("nbytes", 0)))
        return tl

    def serial_seconds(self, stage: Optional[Stage] = None) -> float:
        return sum(e.duration for e in self.events
                   if stage is None or e.stage == stage)

    def stage_breakdown(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for e in self.events:
            out[e.stage.value] = out.get(e.stage.value, 0.0) + e.duration
        return out

    def count(self, stage: Optional[Stage] = None) -> int:
        return sum(1 for e in self.events if stage is None or e.stage == stage)

    def clear(self) -> None:
        self.events.clear()
        self._step = 0
