"""Plan-aware progress: exact percent-complete and a schedule-derived ETA.

Because the :class:`~repro.compile.CompiledPlan` and the run's pass
schedule fix the entire chunk-group schedule *before* execution starts,
total work is known up front — not estimated.
:meth:`ProgressTracker.from_plan` walks the lowered stages once and assigns
every (stage, group) pass that will run an integer weight:

* gate stage — each group pass costs ``chunks_in_group * (1 + ops)``
  units (one codec/transfer unit per chunk plus one kernel unit per
  compiled op per chunk);
* permutation stage — one pass costing ``num_chunks`` units (a blob
  relabel touches every chunk once, no codec work).

The scheduler reports each completed pass (``group_done``); because the
increments are the very weights the total was summed from, the fraction
is exact — it reaches precisely 1.0 when the last group pass lands, with
no float drift (integer arithmetic throughout).

ETA combines the schedule (exact remaining units) with a measured rate:
an exponentially-weighted moving average of units/second over completed
passes, plus per-stage EWMAs so mixed workloads (cheap diagonal stages
vs. heavy fused kernels) expose their own throughputs.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional

__all__ = ["StageProgress", "ProgressTracker"]

#: EWMA smoothing factor per completed group pass
EWMA_ALPHA = 0.2


class StageProgress:
    """One planned stage's work ledger."""

    __slots__ = ("index", "kind", "groups", "unit_weight", "groups_done",
                 "rate_ewma")

    def __init__(self, index: int, kind: str, groups: int, unit_weight: int):
        self.index = index
        self.kind = kind                  # "gate" | "permutation"
        self.groups = groups              # passes this stage will run
        self.unit_weight = unit_weight    # units credited per pass
        self.groups_done = 0
        self.rate_ewma: Optional[float] = None  # units/s, this stage only

    @property
    def total_units(self) -> int:
        return self.groups * self.unit_weight

    @property
    def done_units(self) -> int:
        return self.groups_done * self.unit_weight

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "groups": self.groups,
            "groups_done": self.groups_done,
            "unit_weight": self.unit_weight,
            "rate_units_per_s": self.rate_ewma,
        }


class ProgressTracker:
    """Tracks exact schedule completion; thread-safe (the scheduler writes,
    the serve daemon's ``/jobs/{id}`` handler threads read)."""

    def __init__(self, stages: List[StageProgress], run_id: str = "",
                 clock: Callable[[], float] = time.perf_counter):
        self.stages = stages
        self.run_id = run_id
        self._clock = clock
        self.total_units = sum(s.total_units for s in stages)
        self.done_units = 0
        self.groups_total = sum(s.groups for s in stages)
        self.groups_done = 0
        self.rate_ewma: Optional[float] = None  # units/s, whole run
        self.current_stage = -1
        self._t_start: Optional[float] = None
        self._t_last: Optional[float] = None
        self._t_end: Optional[float] = None
        self._lock = threading.Lock()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_plan(cls, stages, layout, run_id: str = "",
                  clock: Callable[[], float] = time.perf_counter,
                  passes=None) -> "ProgressTracker":
        """Build the exact work ledger from a lowered plan.

        ``stages`` is the :class:`~repro.compile.CompiledPlan` stage list
        (duck-typed to avoid an import cycle: a gate stage exposes
        ``group_qubits``/``ops``, a permutation stage exposes ``perm``).
        ``passes`` is the run's pass schedule
        (:func:`repro.pipeline.sweep.predict_pass_schedule`): a gate stage
        counts the group passes it has there; without one, every group of
        every stage (the full sweep).
        """
        live = None if passes is None else Counter(
            si for kind, si, _gi, _members in passes if kind == "pass")
        entries: List[StageProgress] = []
        for i, stage in enumerate(stages):
            if hasattr(stage, "perm"):
                entries.append(StageProgress(
                    i, "permutation", groups=1,
                    unit_weight=max(1, layout.num_chunks)))
                continue
            t = len(stage.group_qubits)
            groups = max(1, layout.num_chunks >> t) if live is None \
                else live[i]
            chunks_per_group = 1 << t
            unit_weight = chunks_per_group * (1 + len(stage.ops))
            entries.append(StageProgress(i, "gate", groups=groups,
                                         unit_weight=unit_weight))
        return cls(entries, run_id=run_id, clock=clock)

    # -- lifecycle (scheduler side) ------------------------------------------

    def start(self) -> "ProgressTracker":
        with self._lock:
            if self._t_start is None:
                self._t_start = self._t_last = self._clock()
        return self

    def stage_started(self, index: int) -> None:
        with self._lock:
            if 0 <= index < len(self.stages):
                self.current_stage = index

    def group_done(self, index: int, count: int = 1) -> None:
        """Credit ``count`` completed group passes of stage ``index``."""
        if not 0 <= index < len(self.stages):
            return  # a stage list the plan did not describe; stay exact
        now = self._clock()
        with self._lock:
            st = self.stages[index]
            # never over-credit: the fraction must top out at exactly 1.0
            count = min(count, st.groups - st.groups_done)
            if count <= 0:
                return
            units = count * st.unit_weight
            st.groups_done += count
            self.groups_done += count
            self.done_units += units
            self.current_stage = index
            if self._t_start is None:
                self._t_start = self._t_last = now
            dt = now - (self._t_last if self._t_last is not None else now)
            self._t_last = now
            if dt > 0:
                inst = units / dt
                self.rate_ewma = inst if self.rate_ewma is None else (
                    EWMA_ALPHA * inst + (1.0 - EWMA_ALPHA) * self.rate_ewma)
                st.rate_ewma = inst if st.rate_ewma is None else (
                    EWMA_ALPHA * inst + (1.0 - EWMA_ALPHA) * st.rate_ewma)

    def finish(self) -> None:
        """Mark the run complete (records the end time; idempotent)."""
        with self._lock:
            if self._t_end is None:
                self._t_end = self._clock()

    # -- queries (exposition side) -------------------------------------------

    @property
    def fraction(self) -> float:
        """Exact completed fraction in [0, 1] (integer units ratio)."""
        if self.total_units <= 0:
            return 1.0 if self._t_end is not None else 0.0
        return self.done_units / self.total_units

    @property
    def elapsed_seconds(self) -> float:
        if self._t_start is None:
            return 0.0
        end = self._t_end if self._t_end is not None else self._clock()
        return max(0.0, end - self._t_start)

    def eta_seconds(self) -> Optional[float]:
        """Schedule-derived remaining time: exact remaining units over the
        measured EWMA rate. ``None`` before any pass completes."""
        with self._lock:
            remaining = self.total_units - self.done_units
            if remaining <= 0:
                return 0.0
            if self.rate_ewma is None or self.rate_ewma <= 0:
                return None
            return remaining / self.rate_ewma

    @property
    def finished(self) -> bool:
        return self._t_end is not None

    def snapshot(self) -> Dict[str, Any]:
        """What a daemon job's ``/jobs/{id}`` carries as its progress
        (plain JSON-serializable data)."""
        with self._lock:
            stages_done = sum(1 for s in self.stages
                              if s.groups_done >= s.groups)
            cur = self.stages[self.current_stage].to_dict() \
                if 0 <= self.current_stage < len(self.stages) else None
            remaining = self.total_units - self.done_units
            eta = None
            if remaining <= 0:
                eta = 0.0
            elif self.rate_ewma and self.rate_ewma > 0:
                eta = remaining / self.rate_ewma
            return {
                "run_id": self.run_id,
                "fraction": self.fraction,
                "total_units": self.total_units,
                "done_units": self.done_units,
                "groups_total": self.groups_total,
                "groups_done": self.groups_done,
                "stages_total": len(self.stages),
                "stages_done": stages_done,
                "current_stage": cur,
                "elapsed_seconds": self.elapsed_seconds,
                "rate_units_per_s": self.rate_ewma,
                "eta_seconds": eta,
                "finished": self.finished,
            }

    def __repr__(self) -> str:
        return (f"<ProgressTracker {self.fraction * 100:.1f}% "
                f"({self.done_units}/{self.total_units} units, "
                f"{self.groups_done}/{self.groups_total} groups)>")
