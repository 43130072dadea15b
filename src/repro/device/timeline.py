"""Execution timeline: stage events and the pipelined-makespan model.

Every unit of work the online stage performs (decompress, H2D, kernel, D2H,
recompress, CPU-side update) is recorded as a :class:`StageEvent` with its
*measured* duration. Because this box executes stages one after another (one
core, no real GPU), the overlap the paper gets from pipelining is computed
by replaying the events through a resource-constrained list scheduler:

* each stage class is bound to a resource (CPU codec, H2D bus, GPU, D2H bus,
  idle CPU cores);
* an event may start when its per-chunk predecessor has finished *and* its
  resource is free;
* the pipelined makespan is the last finish time.

This gives both numbers the Fig. 1 experiment needs: the serial sum and the
overlapped makespan, from the same measured per-stage costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Stage", "StageEvent", "Timeline", "PipelineModel", "ScheduledEvent"]


class Stage(str, Enum):
    """Pipeline stage kinds (paper Fig. 1 steps)."""

    DECOMPRESS = "decompress"  # (1) chunk blob -> CPU buffer
    H2D = "h2d"                # (2) CPU buffer -> GPU memory
    KERNEL = "kernel"          # (3) GPU amplitude update
    D2H = "d2h"                # (4) GPU -> CPU buffer
    CPU_UPDATE = "cpu_update"  # (5) idle-core CPU-side update
    COMPRESS = "compress"      # (6) CPU buffer -> chunk blob


#: resource each stage occupies in the overlap model
STAGE_RESOURCE: Dict[Stage, str] = {
    Stage.DECOMPRESS: "cpu_codec",
    Stage.COMPRESS: "cpu_codec",
    Stage.H2D: "bus_h2d",
    Stage.D2H: "bus_d2h",
    Stage.KERNEL: "gpu",
    Stage.CPU_UPDATE: "cpu_idle",
}


@dataclass(frozen=True)
class StageEvent:
    """One measured unit of stage work."""

    stage: Stage
    duration: float
    chunk: int  # chunk/group id the work belongs to (-1 = global)
    nbytes: int = 0
    step: int = 0  # monotonically increasing issue order


@dataclass(frozen=True)
class ScheduledEvent:
    """A stage event placed on the overlapped timeline."""

    event: StageEvent
    start: float
    end: float
    resource: str


class Timeline:
    """Ordered log of measured stage events.

    :meth:`record` is the one booking call of a pipeline hop: the layer
    that runs a hop (the chunk store its codec calls, the device executor
    its copies and kernels, the scheduler its host-side updates) times it
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


class PipelineModel:
    """Replays a timeline through resource-constrained list scheduling."""

    def __init__(self, cpu_codec_lanes: int = 1, cpu_idle_lanes: int = 1,
                 gpu_lanes: int = 1, bus_lanes: int = 0):
        """Lanes model parallel capacity per resource.

        ``cpu_codec_lanes`` > 1 models multi-core (de)compression;
        ``cpu_idle_lanes`` models the idle cores doing CPU-side updates;
        ``gpu_lanes`` > 1 models multiple devices, each with its own bus
        (``bus_lanes`` defaults to ``gpu_lanes``).
        """
        if bus_lanes <= 0:
            bus_lanes = max(1, gpu_lanes)
        self.lanes = {
            "cpu_codec": max(1, cpu_codec_lanes),
            "bus_h2d": max(1, bus_lanes),
            "bus_d2h": max(1, bus_lanes),
            "gpu": max(1, gpu_lanes),
            "cpu_idle": max(1, cpu_idle_lanes),
        }

    def schedule(self, events: Sequence[StageEvent]) -> Tuple[List[ScheduledEvent], float]:
        """Place events; returns (schedule, makespan).

        Dependencies: events sharing a chunk id execute in issue order
        (the per-chunk decompress -> h2d -> kernel -> d2h -> compress
        chain); events on different chunks only contend for resources.
        Chunk id -1 serializes against everything issued before it.
        """
        resource_free: Dict[str, List[float]] = {
            r: [0.0] * n for r, n in self.lanes.items()
        }
        chunk_ready: Dict[int, float] = {}
        barrier_time = 0.0
        scheduled: List[ScheduledEvent] = []
        makespan = 0.0
        for ev in sorted(events, key=lambda e: e.step):
            resource = STAGE_RESOURCE[ev.stage]
            lanes = resource_free[resource]
            lane = min(range(len(lanes)), key=lanes.__getitem__)
            if ev.chunk == -1:
                # A barrier waits for everything issued before it...
                dep = makespan
            else:
                dep = max(chunk_ready.get(ev.chunk, 0.0), barrier_time)
            start = max(lanes[lane], dep)
            end = start + ev.duration
            lanes[lane] = end
            if ev.chunk == -1:
                # ...and everything issued after waits for it.
                barrier_time = end
            else:
                chunk_ready[ev.chunk] = end
            scheduled.append(ScheduledEvent(ev, start, end, f"{resource}[{lane}]"))
            makespan = max(makespan, end)
        return scheduled, makespan

    def makespan(self, timeline: Timeline) -> float:
        _, m = self.schedule(timeline.events)
        return m

    @staticmethod
    def gantt(scheduled: Sequence[ScheduledEvent], width: int = 72) -> str:
        """ASCII Gantt chart of a schedule, one row per resource lane."""
        if not scheduled:
            return "(empty schedule)"
        end = max(s.end for s in scheduled)
        if end <= 0:
            return "(zero-length schedule)"
        rows: Dict[str, List[str]] = {}
        for s in scheduled:
            row = rows.setdefault(s.resource, [" "] * width)
            a = int(s.start / end * (width - 1))
            b = max(a + 1, int(s.end / end * (width - 1)) + 1)
            ch = s.event.stage.value[0].upper()
            for i in range(a, min(b, width)):
                row[i] = ch
        lines = [f"{name:<12} |{''.join(row)}|" for name, row in sorted(rows.items())]
        lines.append(f"{'':<12}  0{'':<{width - 10}}{end * 1e3:.1f} ms")
        return "\n".join(lines)
