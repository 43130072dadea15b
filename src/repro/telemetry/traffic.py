"""The memory-traffic audit plane: the byte-exact movement ledger.

MEMQSim's claim is memory efficiency, and the quantity the paper optimizes
is *bytes crossing tier boundaries* — yet spans and gauges measure time and
occupancy. :class:`TrafficLedger` reads the movement itself: the exact
bytes moved across every tier edge, attributed to ``(stage, chunk-group,
direction)``. It books nothing: a moved byte is booked once, as a row of a
:class:`~repro.device.timeline.Timeline`, and the ledger folds the rows of
every timeline the tracer has attached. Each edge is read off one row kind
(see ``_EDGES_OF``): ``arena.h2d`` / ``d2h`` (host staging buffer <->
device arena), ``codec.raw_in`` / ``compressed_out`` (compress),
``codec.compressed_in`` / ``raw_out`` (decompress), ``disk.read`` /
``write`` (compressed store <-> append log) and ``cache.hit`` / ``miss``
(bytes served from / fetched past the decompressed-chunk cache). A row
names its pass's stage and group and the codec lane that ran it, so
per-stage and per-lane attributions partition the totals.

The chunk access trace is not recorded here: the run's pass schedule fixes
it before execution (:meth:`~repro.core.MemQSimResult.access_trace`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["TrafficLedger"]

# row fields the fold reads (see repro.device.timeline.ROW_FIELDS)
_SECONDS, _GROUP, _NBYTES, _LANE, _STAGE_INDEX, _BLOB = 2, 3, 5, 6, 8, 9

#: row kind -> the (edge, direction, row field of its bytes) it moved; a
#: kernel batch or a relabeling moves none
_EDGES_OF: Dict[str, Tuple[Tuple[str, str, int], ...]] = {
    "h2d": (("arena", "h2d", _NBYTES),),
    "d2h": (("arena", "d2h", _NBYTES),),
    "compress": (("codec", "raw_in", _NBYTES),
                 ("codec", "compressed_out", _BLOB)),
    "decompress": (("codec", "compressed_in", _BLOB),
                   ("codec", "raw_out", _NBYTES)),
    "disk_read": (("disk", "read", _NBYTES),),
    "disk_write": (("disk", "write", _NBYTES),),
    "cache_hit": (("cache", "hit", _NBYTES),),
    "cache_miss": (("cache", "miss", _NBYTES),),
}


class TrafficLedger:
    """Byte-exact movement across tier edges, read off timeline rows.

    Every query first folds the rows booked since the last one (under the
    tracer's lock, :meth:`Tracer.folded`), so each row is read once however
    often the ledger is asked. Nothing here is called on a hop path.
    """

    def __init__(self, tracer):
        self._tracer = tracer
        # (edge, direction) -> [bytes, ops]
        self._totals: Dict[Tuple[str, str], List[int]] = {}
        # (stage, group, "edge.direction") -> bytes
        self._cells: Dict[Tuple[int, int, str], int] = {}
        # (codec lane, "edge.direction") -> bytes; lane 0 = inline
        self._workers: Dict[Tuple[int, str], int] = {}
        # bytes, seconds of the decompress rows
        self._decoded = [0, 0.0]

    def _add(self, rows) -> None:
        totals, cells, workers = self._totals, self._cells, self._workers
        for row in rows:
            kind = row[0].value
            if kind == "decompress":
                self._decoded[0] += row[_NBYTES]
                self._decoded[1] += row[_SECONDS]
            for edge, direction, field in _EDGES_OF.get(kind, ()):
                nbytes = row[field]
                tot = totals.setdefault((edge, direction), [0, 0])
                tot[0] += nbytes
                tot[1] += 1
                key = f"{edge}.{direction}"
                cell = (row[_STAGE_INDEX], row[_GROUP], key)
                cells[cell] = cells.get(cell, 0) + nbytes
                workers[row[_LANE], key] = \
                    workers.get((row[_LANE], key), 0) + nbytes

    def _folded(self):
        """Context in which every attached row has been read."""
        return self._tracer.folded(self._add)

    def _split(self, cells, pick) -> Dict[int, Dict[str, int]]:
        """``{pick(cell key): {"edge.direction": bytes}}``, keys sorted."""
        out: Dict[int, Dict[str, int]] = {}
        with self._folded():
            for key, v in cells.items():
                at = pick(key)
                if at is not None:
                    row = out.setdefault(at, {})
                    row[key[-1]] = row.get(key[-1], 0) + v
        return {k: dict(sorted(r.items())) for k, r in sorted(out.items())}

    # -- queries --------------------------------------------------------------

    def total_bytes(self, edge: Optional[str] = None,
                    direction: Optional[str] = None) -> int:
        with self._folded():
            return sum(
                v[0] for (e, d), v in self._totals.items()
                if (edge is None or e == edge)
                and (direction is None or d == direction)
            )

    def totals(self) -> Dict[str, Dict[str, int]]:
        """``{"edge.direction": {"bytes": ..., "ops": ...}}``."""
        with self._folded():
            return {
                f"{e}.{d}": {"bytes": v[0], "ops": v[1]}
                for (e, d), v in sorted(self._totals.items())
            }

    def decoded(self) -> Tuple[int, float]:
        """``(bytes, seconds)`` of the decompress rows."""
        with self._folded():
            return self._decoded[0], self._decoded[1]

    def by_stage(self) -> Dict[int, Dict[str, int]]:
        """``{stage: {"edge.direction": bytes}}`` (stage -1 = out-of-stage)."""
        return self._split(self._cells, lambda key: key[0])

    def by_group(self, stage: int) -> Dict[int, Dict[str, int]]:
        """Per-group breakdown of one stage's traffic."""
        return self._split(self._cells,
                           lambda key: key[1] if key[0] == stage else None)

    def by_worker(self) -> Dict[int, Dict[str, int]]:
        """``{codec lane: {"edge.direction": bytes}}``; lane 0 = inline."""
        return self._split(self._workers, lambda key: key[0])

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
