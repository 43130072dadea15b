"""Execution timeline: the one per-hop record of a run.

Every unit of work the online stage performs (decompress, H2D, kernel, D2H,
recompress, permutation relabeling) is booked here as one row, with its
*measured* start and duration, once, by the layer that ran it. The run's
serial stage sum and per-stage breakdown are read off the rows; what the
run took end to end is its stopwatch (``MemQSimResult.online_seconds``).
Everything else is a view of the rows, built when someone reads it: the
hop spans of a Chrome-trace or JSONL export
(:meth:`repro.telemetry.Tracer.attach`) and the modelled makespan of
:mod:`repro.analysis.pipeline_model`, labelled as a what-if.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Tuple

__all__ = ["Stage", "Timeline", "ROW_FIELDS"]


class Stage(str, Enum):
    """Pipeline stage kinds (paper Fig. 1 steps)."""

    DECOMPRESS = "decompress"  # (1) chunk blob -> CPU buffer
    H2D = "h2d"                # (2) CPU buffer -> GPU memory
    KERNEL = "kernel"          # (3) GPU amplitude update
    D2H = "d2h"                # (4) GPU -> CPU buffer
    CPU_UPDATE = "cpu_update"  # host-side blob relabeling (permutation hop)
    COMPRESS = "compress"      # (6) CPU buffer -> chunk blob


#: what a row holds, in order: the stage; its start (``perf_counter``
#: seconds, on whichever thread ran it) and duration; the group pass that
#: issued it (-1 = none); the chunk (-1 = a whole group buffer or none);
#: bytes moved; the codec lane that ran it (0 = the run's own thread); and
#: the op count of a kernel batch
ROW_FIELDS = ("stage", "start", "seconds", "group", "chunk", "nbytes",
              "lane", "ops")

Row = Tuple[Stage, float, float, int, int, int, int, int]


class Timeline:
    """The rows of a run, in booking order.

    :meth:`record` is the one booking call of a pipeline hop: the layer
    that runs a hop (the chunk store its codec calls, the device executor
    its copies and kernels, the scheduler its blob relabelings) times it
    and records it here, once, as a plain tuple (see :data:`ROW_FIELDS`).
    """

    def __init__(self) -> None:
        self.rows: List[Row] = []

    def record(self, stage: Stage, start: float, seconds: float,
               group: int = -1, chunk: int = -1, nbytes: int = 0,
               lane: int = 0, ops: int = 0) -> None:
        """Book one hop."""
        self.rows.append((stage, start, seconds if seconds > 0 else 0.0,
                          group, chunk, nbytes, lane, ops))

    def serial_seconds(self, stage: Optional[Stage] = None) -> float:
        return sum(r[2] for r in self.rows if stage is None or r[0] == stage)

    def stage_breakdown(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for r in self.rows:
            out[r[0].value] = out.get(r[0].value, 0.0) + r[2]
        return out

    def count(self, stage: Optional[Stage] = None) -> int:
        if stage is None:
            return len(self.rows)
        return sum(1 for r in self.rows if r[0] == stage)

    def clear(self) -> None:
        self.rows.clear()
