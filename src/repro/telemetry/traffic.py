"""The memory-traffic audit plane: byte-exact movement ledger + access trace.

MEMQSim's claim is memory efficiency, and the quantity the paper optimizes
is *bytes crossing tier boundaries* — yet spans and gauges measure time and
occupancy. This module records the movement itself:

* :class:`TrafficLedger` — a thread-safe ledger counting the exact bytes
  moved across every tier edge, attributed to ``(stage, chunk-group,
  direction)``. The edges (see :data:`EDGES`):

  - ``arena.h2d`` / ``arena.d2h`` — host staging buffer <-> device arena;
  - ``codec.raw_in`` / ``codec.compressed_out`` — compress hops (store);
  - ``codec.compressed_in`` / ``codec.raw_out`` — decompress hops (load);
  - ``disk.read`` / ``disk.write`` — compressed store <-> append log;
  - ``cache.hit`` / ``cache.miss`` — bytes served from / fetched past the
    decompressed-chunk cache.

  Every ``record`` also feeds a ``traffic.<edge>.<direction>.bytes``
  counter, so the ledger shows up in ``/metrics`` (run and serve) for
  free. Codec-lane results are recorded on the calling thread when the
  store collects them, with the lane index attached, so per-lane
  attributions always sum to the totals.

* :class:`ChunkAccessRecorder` — the exact per-chunk access sequence
  ``(stage, chunk id, read/write)`` the scheduler generates, plus barrier
  markers at permutation stages (where any chunk cache is flushed).
  :mod:`repro.analysis.memtrace` turns the trace into reuse-distance
  histograms, a hit-rate-vs-capacity curve, and the Belady-optimal miss
  bound; :mod:`repro.analysis.audit` compares it against the schedule
  predicted from the :class:`~repro.compile.CompiledPlan`.

The canonical import path for memory-plane users is
:mod:`repro.memory.traffic` (a re-export — the implementation lives here
so :class:`~repro.telemetry.Telemetry` can hold the ledger without a
package cycle).
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "EDGES",
    "TrafficLedger",
    "AccessEvent",
    "ChunkAccessRecorder",
]

#: every (edge, direction) pair the pipeline can move bytes across
EDGES: Tuple[Tuple[str, str], ...] = (
    ("arena", "h2d"),
    ("arena", "d2h"),
    ("codec", "raw_in"),
    ("codec", "compressed_out"),
    ("codec", "compressed_in"),
    ("codec", "raw_out"),
    ("disk", "read"),
    ("disk", "write"),
    ("cache", "hit"),
    ("cache", "miss"),
)

#: attribution value for traffic outside any stage (init, result queries)
OUT_OF_STAGE = -1


class TrafficLedger:
    """Byte-exact movement ledger across tier edges.

    The scheduler sets the current ``(stage, group)`` attribution at each
    group-pass boundary (:meth:`set_pass`); stores, caches and transfer
    strategies then :meth:`record` against that ambient context without
    knowing it. Deferred work that lands outside its own pass (a chunk
    store settling a write its codec lane finished later) captures the
    context with :meth:`pass_context` when the work is issued and
    re-enters it via :meth:`attributed` when it lands.
    """

    def __init__(self, metrics=None):
        self._lock = threading.Lock()
        self._metrics = metrics
        # (edge, direction) -> [bytes, ops]
        self._totals: Dict[Tuple[str, str], List[int]] = {}
        # (stage, group, edge, direction) -> bytes
        self._cells: Dict[Tuple[int, int, str, str], int] = {}
        # (codec lane, edge, direction) -> bytes; lane 0 = inline
        self._workers: Dict[Tuple[int, str, str], int] = {}
        self._stage = OUT_OF_STAGE
        self._group = OUT_OF_STAGE

    # -- attribution context --------------------------------------------------

    def set_pass(self, stage: int = OUT_OF_STAGE,
                 group: int = OUT_OF_STAGE) -> None:
        """Set the ambient (stage, group) subsequent records attribute to."""
        self._stage = stage
        self._group = group

    def pass_context(self) -> Tuple[int, int]:
        """The ambient ``(stage, group)``, to hand back to :meth:`attributed`."""
        return self._stage, self._group

    @contextmanager
    def attributed(self, stage: int, group: int):
        """Temporarily attribute records to a specific (stage, group)."""
        prev = (self._stage, self._group)
        self._stage, self._group = stage, group
        try:
            yield self
        finally:
            self._stage, self._group = prev

    # -- recording ------------------------------------------------------------

    def record(self, edge: str, direction: str, nbytes: int, *,
               ops: int = 1, worker: int = 0) -> None:
        """Count ``nbytes`` crossing ``edge`` in ``direction``.

        ``worker`` is the codec lane that produced the bytes (1..workers;
        0 for inline work); recording always happens on the calling
        thread, so lane attributions are a partition of the totals.
        """
        key = (edge, direction)
        with self._lock:
            tot = self._totals.get(key)
            if tot is None:
                self._totals[key] = [nbytes, ops]
            else:
                tot[0] += nbytes
                tot[1] += ops
            cell = (self._stage, self._group, edge, direction)
            self._cells[cell] = self._cells.get(cell, 0) + nbytes
            wkey = (worker, edge, direction)
            self._workers[wkey] = self._workers.get(wkey, 0) + nbytes
        if self._metrics is not None:
            self._metrics.counter(
                f"traffic.{edge}.{direction}.bytes").inc(nbytes)

    # -- queries --------------------------------------------------------------

    def total_bytes(self, edge: Optional[str] = None,
                    direction: Optional[str] = None) -> int:
        with self._lock:
            return sum(
                v[0] for (e, d), v in self._totals.items()
                if (edge is None or e == edge)
                and (direction is None or d == direction)
            )

    def totals(self) -> Dict[str, Dict[str, int]]:
        """``{"edge.direction": {"bytes": ..., "ops": ...}}``."""
        with self._lock:
            return {
                f"{e}.{d}": {"bytes": v[0], "ops": v[1]}
                for (e, d), v in sorted(self._totals.items())
            }

    def stage_bytes(self, stage: int, edge: str, direction: str) -> int:
        """Bytes over one edge attributed to one stage (all groups)."""
        with self._lock:
            return sum(
                v for (s, _g, e, d), v in self._cells.items()
                if s == stage and e == edge and d == direction
            )

    def by_stage(self) -> Dict[int, Dict[str, int]]:
        """``{stage: {"edge.direction": bytes}}`` (stage -1 = out-of-stage)."""
        out: Dict[int, Dict[str, int]] = {}
        with self._lock:
            for (s, _g, e, d), v in self._cells.items():
                row = out.setdefault(s, {})
                key = f"{e}.{d}"
                row[key] = row.get(key, 0) + v
        return {s: dict(sorted(r.items())) for s, r in sorted(out.items())}

    def by_group(self, stage: int) -> Dict[int, Dict[str, int]]:
        """Per-group breakdown of one stage's traffic."""
        out: Dict[int, Dict[str, int]] = {}
        with self._lock:
            for (s, g, e, d), v in self._cells.items():
                if s != stage:
                    continue
                row = out.setdefault(g, {})
                key = f"{e}.{d}"
                row[key] = row.get(key, 0) + v
        return {g: dict(sorted(r.items())) for g, r in sorted(out.items())}

    def by_worker(self) -> Dict[int, Dict[str, int]]:
        """``{codec lane: {"edge.direction": bytes}}``; lane 0 = inline."""
        out: Dict[int, Dict[str, int]] = {}
        with self._lock:
            for (w, e, d), v in self._workers.items():
                out.setdefault(w, {})[f"{e}.{d}"] = v
        return {w: dict(sorted(r.items())) for w, r in sorted(out.items())}

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable payload for results / reports."""
        return {
            "totals": self.totals(),
            "by_stage": {str(s): r for s, r in self.by_stage().items()},
            "by_worker": {str(w): r for w, r in self.by_worker().items()},
        }

    def __repr__(self) -> str:
        t = self.totals()
        moved = sum(v["bytes"] for v in t.values())
        return f"<TrafficLedger {len(t)} edges {moved:,}B moved>"


#: one recorded access: (stage index, chunk id, op); op is "r" | "w" | "b"
#: (barrier — chunk id is -1, marks a permutation stage / cache flush)
AccessEvent = Tuple[int, int, str]


class ChunkAccessRecorder:
    """Records the exact chunk access sequence the scheduler generates.

    Accesses are recorded at the scheduler's store surface in *logical*
    order, so the trace is independent of any cache sitting in front of
    the store and of any codec lane behind it.
    """

    def __init__(self):
        self._events: List[AccessEvent] = []

    def record(self, chunk: int, stage: int, op: str) -> None:
        self._events.append((stage, chunk, op))

    def barrier(self, stage: int) -> None:
        """Mark a permutation stage: chunk ids are relabeled and any cache
        in front of the store is flushed — reuse does not survive it."""
        self._events.append((stage, -1, "b"))

    def trace(self) -> List[AccessEvent]:
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [{"stage": s, "chunk": c, "op": op}
                for s, c, op in self._events]

    def write_jsonl(self, path) -> int:
        """One JSON object per access; returns the number of lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s, c, op in self._events:
                fh.write(json.dumps({"stage": s, "chunk": c, "op": op}))
                fh.write("\n")
        return len(self._events)

    @staticmethod
    def read_jsonl(path) -> List[AccessEvent]:
        out: List[AccessEvent] = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                d = json.loads(line)
                out.append((int(d["stage"]), int(d["chunk"]), str(d["op"])))
        return out

    def __repr__(self) -> str:
        return f"<ChunkAccessRecorder {len(self._events)} accesses>"
