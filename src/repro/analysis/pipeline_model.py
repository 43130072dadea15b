"""A *modelled* overlapped makespan — a what-if, not a measurement.

A run's :class:`~repro.device.timeline.Timeline` holds the measured
duration of every hop, one row each. This module replays those rows through
a resource-constrained list scheduler to ask what the run would take if
every resource worked in parallel with the others:

* each stage class is bound to a resource (CPU codec, H2D bus, GPU, D2H
  bus, host relabeling, the disk, the host copy out of the chunk cache);
* a hop may start when its group's previous hop has finished *and* its
  resource is free;
* the makespan is the last finish time.

The answer is a model of hardware this simulator does not have (a real
device with its own copy engines), so everything built from it is labelled
"modelled". What a run actually took is its stopwatch,
``MemQSimResult.online_seconds``. The paper's Fig. 1 benchmark, the HTML
report's Gantt chart and ``examples/qft_pipeline_trace.py`` use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..device.timeline import Stage, Timeline

__all__ = ["PipelineModel", "ScheduledEvent", "STAGE_RESOURCE"]


#: resource each stage occupies in the overlap model
STAGE_RESOURCE: Dict[Stage, str] = {
    Stage.DECOMPRESS: "cpu_codec",
    Stage.COMPRESS: "cpu_codec",
    Stage.H2D: "bus_h2d",
    Stage.D2H: "bus_d2h",
    Stage.KERNEL: "gpu",
    Stage.CPU_UPDATE: "cpu_idle",
    Stage.DISK_WRITE: "disk",
    Stage.DISK_READ: "disk",
    Stage.CACHE_HIT: "host_copy",
    Stage.CACHE_MISS: "host_copy",
}


@dataclass(frozen=True)
class ScheduledEvent:
    """A hop placed on the overlapped timeline."""

    stage: Stage
    group: int
    seconds: float
    start: float
    end: float
    resource: str


class PipelineModel:
    """Replays a timeline through resource-constrained list scheduling."""

    def __init__(self, cpu_codec_lanes: int = 1, gpu_lanes: int = 1,
                 bus_lanes: int = 0):
        """Lanes model parallel capacity per resource.

        ``cpu_codec_lanes`` > 1 models multi-core (de)compression;
        ``gpu_lanes`` > 1 models multiple devices, each with its own bus
        (``bus_lanes`` defaults to ``gpu_lanes``). The host resource
        (``cpu_idle``) has one lane: its only events are permutation hops,
        which are barriers, so more lanes would never be used. The disk
        log and the cache's host copies have one lane each.
        """
        if bus_lanes <= 0:
            bus_lanes = max(1, gpu_lanes)
        self.lanes = {
            "cpu_codec": max(1, cpu_codec_lanes),
            "bus_h2d": max(1, bus_lanes),
            "bus_d2h": max(1, bus_lanes),
            "gpu": max(1, gpu_lanes),
            "cpu_idle": 1,
            "disk": 1,
            "host_copy": 1,
        }

    def schedule(self, rows: Sequence[tuple]
                 ) -> Tuple[List[ScheduledEvent], float]:
        """Place timeline rows, in booking order; returns (schedule, makespan).

        Dependencies: rows of one group pass execute in booking order (the
        decompress -> h2d -> kernel -> d2h -> compress chain); rows of
        different groups only contend for resources. Group -1 serializes
        against everything booked before it.
        """
        resource_free: Dict[str, List[float]] = {
            r: [0.0] * n for r, n in self.lanes.items()
        }
        group_ready: Dict[int, float] = {}
        barrier_time = 0.0
        scheduled: List[ScheduledEvent] = []
        makespan = 0.0
        for stage, _t0, seconds, group, *_ in rows:
            resource = STAGE_RESOURCE[stage]
            lanes = resource_free[resource]
            lane = min(range(len(lanes)), key=lanes.__getitem__)
            if group == -1:
                # A barrier waits for everything issued before it...
                dep = makespan
            else:
                dep = max(group_ready.get(group, 0.0), barrier_time)
            start = max(lanes[lane], dep)
            end = start + seconds
            lanes[lane] = end
            if group == -1:
                # ...and everything issued after waits for it.
                barrier_time = end
            else:
                group_ready[group] = end
            scheduled.append(ScheduledEvent(stage, group, seconds, start, end,
                                            f"{resource}[{lane}]"))
            makespan = max(makespan, end)
        return scheduled, makespan

    def makespan(self, timeline: Timeline) -> float:
        _, m = self.schedule(timeline.rows)
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
            ch = s.stage.value[0].upper()
            for i in range(a, min(b, width)):
                row[i] = ch
        lines = [f"{name:<12} |{''.join(row)}|" for name, row in sorted(rows.items())]
        lines.append(f"{'':<12}  0{'':<{width - 10}}{end * 1e3:.1f} ms")
        return "\n".join(lines)
