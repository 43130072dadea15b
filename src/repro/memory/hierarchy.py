"""The plan-driven memory hierarchy: schedule, tiered store, facade.

The system's central observation is that a
:class:`~repro.compile.CompiledPlan`, together with which chunks of the
start state are non-zero, fixes the *entire* chunk access sequence before
execution — so every memory-tier decision that a classical
cache must guess at (what to evict, what to prefetch, what to spill) can
be computed exactly. Three pieces wire that through:

* :class:`AccessSchedule` — the run's access sequence with a shared
  replay cursor. The scheduler re-seeks the cursor at every group pass;
  the Belady cache policy matches accesses against it; the tiered store
  asks it which resident blob is needed farthest in the future; a store
  with a codec lane asks it what the next pass reads, to decompress it
  ahead.
* :class:`TieredChunkStore` — the third tier. Hot compressed blobs stay
  in RAM under a byte budget; the plan-coldest blobs spill to an
  append-log file (:class:`~repro.memory.diskstore.BlobLog`, mmap-backed
  reads). The hierarchy becomes arena → host blobs → disk blobs; every
  append and read of the log is a ``disk_write`` / ``disk_read`` row.
  Budget 0 is the out-of-core store: every blob lives in the log.
* :class:`MemoryHierarchy` — the facade :class:`~repro.core.MemQSim`
  builds: base store, optional decompressed-chunk cache, and the one
  schedule every layer shares.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..compression.interface import Compressor
from .accounting import MemoryTracker
from .cache import ChunkCache
from .chunkstore import CATEGORY as RAM_CATEGORY
from .chunkstore import CompressedChunkStore
from .diskstore import BlobLog
from .layout import ChunkLayout

__all__ = [
    "AccessSchedule",
    "TierStats",
    "TieredChunkStore",
    "MemoryHierarchy",
]

_INF = float("inf")


class AccessSchedule:
    """A run's exact chunk access sequence, with a shared cursor.

    Built from the run's pass schedule
    (:func:`repro.pipeline.sweep.predict_pass_schedule`) — the list the
    scheduler iterates and the audit plane verifies live runs against. It
    holds the passes that run, not the full sweep: a group that is all
    zero at plan time is never streamed, so it gets no next-use position
    and no prefetch job.
    Consumers:

    * the scheduler calls :meth:`begin_pass` per group pass and
      :meth:`barrier` at permutation stages, keeping the cursor honest
      even when some accesses bypass the schedule-aware layers;
    * :class:`~repro.memory.cache.BeladyPolicy` calls :meth:`observe` per
      cache access to learn that access's next-use position;
    * :class:`TieredChunkStore` calls :meth:`coldest` to find the
      plan-coldest resident blob when it must spill;
    * a store with a codec lane calls :meth:`reads_after` for the chunks
      to decompress ahead, and reads :attr:`pass_id` to name the pass a
      deferred write belongs to.

    All next-use queries are **barrier-bounded**: a reuse on the far side
    of a permutation stage counts as "never" (chunk ids are relabeled and
    caches flush there, so reuse does not survive the crossing).
    """

    def __init__(
        self,
        passes: Sequence[Tuple[str, int, int, Tuple[int, ...]]],
    ):
        seq: List[Tuple[int, str]] = []   # (chunk, op); barriers = (-1, "b")
        pass_start: Dict[Tuple[int, int], int] = {}
        barrier_pos: Dict[int, int] = {}
        for kind, si, gi, members in passes:
            if kind == "barrier":
                barrier_pos[si] = len(seq)
                seq.append((-1, "b"))
                continue
            pass_start[(si, gi)] = len(seq)
            for chunk in members:
                seq.append((chunk, "r"))
            for chunk in members:
                seq.append((chunk, "w"))
        self._seq = seq
        self._pass_start = pass_start
        self._barrier_pos = barrier_pos
        self._barriers = sorted(barrier_pos.values())
        positions: Dict[int, List[int]] = {}
        for i, (chunk, op) in enumerate(seq):
            if op != "b":
                positions.setdefault(chunk, []).append(i)
        self._positions = positions
        # next_use[i]: position of the same chunk's next access within its
        # barrier epoch; INF past the epoch (mirrors memtrace's Belady).
        next_use = [_INF] * len(seq)
        last_seen: Dict[int, int] = {}
        for i in range(len(seq) - 1, -1, -1):
            chunk, op = seq[i]
            if op == "b":
                last_seen.clear()
                continue
            if chunk in last_seen:
                next_use[i] = last_seen[chunk]
            last_seen[chunk] = i
        self._next_use = next_use
        self.cursor = 0
        #: ``(stage, group)`` of the pass now executing (-1 = none yet)
        self.pass_id: Tuple[int, int] = (-1, -1)
        self.matched = 0
        self.off_schedule = 0

    def __len__(self) -> int:
        return len(self._seq)

    # -- cursor advancement ---------------------------------------------------

    def begin_pass(self, stage: int, group: int) -> None:
        """Seek the cursor to the start of pass ``(stage, group)``.

        Called by the scheduler before each group pass — the authoritative
        resync point, so layers that only see *some* accesses (a store
        behind a cache sees the misses) still track plan position
        pass-by-pass.
        """
        self.pass_id = (stage, group)
        pos = self._pass_start.get(self.pass_id)
        if pos is not None:
            self.cursor = pos

    def barrier(self, stage: int) -> None:
        """Advance the cursor past stage ``stage``'s permutation barrier."""
        pos = self._barrier_pos.get(stage)
        if pos is not None:
            self.cursor = pos + 1

    def observe(self, chunk: int, op: str) -> Optional[float]:
        """Match one live access against the schedule.

        On a match the cursor advances past it and the access's
        barrier-bounded next-use position is returned (``inf`` = never
        again this epoch). ``None`` means the access is off-schedule
        (ad-hoc load, post-run query) — the caller should fall back to a
        heuristic; the cursor does not move, so one stray access cannot
        derail replay of the remaining plan.
        """
        cur = self.cursor
        seq = self._seq
        while cur < len(seq) and seq[cur][1] == "b":
            cur += 1
        if cur < len(seq) and seq[cur] == (chunk, op):
            self.cursor = cur + 1
            self.matched += 1
            return self._next_use[cur]
        self.off_schedule += 1
        return None

    # -- future queries -------------------------------------------------------

    def horizon(self) -> float:
        """Position of the first barrier at/after the cursor (``inf`` when
        none is left): the far edge of every next-use query."""
        j = bisect_left(self._barriers, self.cursor)
        return self._barriers[j] if j < len(self._barriers) else _INF

    def next_use_of(self, chunk: int, horizon: Optional[float] = None) -> float:
        """Barrier-bounded position of ``chunk``'s next use at/after the
        cursor; ``inf`` if it is not needed again before the next barrier.

        A caller that asks about many chunks at one cursor position passes
        :meth:`horizon` so the barrier is looked up once, not per chunk.
        """
        pos_list = self._positions.get(chunk)
        if not pos_list:
            return _INF
        i = bisect_left(pos_list, self.cursor)
        if i == len(pos_list):
            return _INF
        p = pos_list[i]
        if (self.horizon() if horizon is None else horizon) < p:
            return _INF
        return float(p)

    def coldest(self, chunks) -> Optional[int]:
        """The first of ``chunks`` whose next use (as :meth:`next_use_of`
        ranks it) is farthest; ``None`` when ``chunks`` is empty. Finite
        next-use positions are unique schedule indices, and a chunk not
        needed again before the next barrier ends the scan: ``inf`` ties
        are all equivalent."""
        horizon = self.horizon()
        cursor = self.cursor
        positions = self._positions
        victim, victim_nu = None, -1
        for chunk in chunks:
            pos_list = positions.get(chunk)
            if not pos_list:
                return chunk
            i = bisect_left(pos_list, cursor)
            if i == len(pos_list) or pos_list[i] > horizon:
                return chunk
            if pos_list[i] > victim_nu:
                victim, victim_nu = chunk, pos_list[i]
        return victim

    def reads_after(self) -> Tuple[int, ...]:
        """The reads of the pass following :attr:`pass_id` — empty when a
        permutation barrier or the end of the plan comes first, so it
        crosses a stage boundary exactly when chunk ids survive it."""
        seq = self._seq
        i = self._pass_start.get(self.pass_id, len(seq))
        for op in "rw":
            while i < len(seq) and seq[i][1] == op:
                i += 1
        j = i
        while j < len(seq) and seq[j][1] == "r":
            j += 1
        return tuple(chunk for chunk, _op in seq[i:j])

    def remaining(self) -> int:
        return len(self._seq) - self.cursor

    def __repr__(self) -> str:
        return (f"<AccessSchedule {self.cursor}/{len(self._seq)} "
                f"matched={self.matched} off_schedule={self.off_schedule}>")


@dataclass
class TierStats:
    """Spill/promote accounting for the RAM↔disk blob edge (a telemetry
    reads it as ``tier.spill`` / ``tier.promote``)."""

    spills: int = 0
    promotions: int = 0


class TieredChunkStore(CompressedChunkStore):
    """Compressed blobs split across a RAM tier and a disk append log.

    Blob writes land in RAM first; when unique RAM blob bytes exceed
    ``host_budget_bytes``, the store spills the **plan-coldest** resident
    blobs (farthest next use per the attached :class:`AccessSchedule`;
    least-recently-touched when no schedule is attached) to the log.
    Reads of a disk-resident blob are served straight from the mmap-backed
    log without promotion — promotion happens ahead of use instead, via
    the scheduler's :meth:`will_need` hints, so a read burst never evicts
    the chunks it is about to use.

    The interned all-zero blob is pinned in RAM (it is one blob shared by
    arbitrarily many chunks; spilling it would save nothing). Permutation
    stages relabel both tiers' indices and move zero bytes, preserving the
    audit plane's permutations-are-free invariant. The tracker keeps RAM
    blobs under ``chunk_store`` and file bytes under ``disk_store``, and
    every spill and read of the log is booked as a row of the pass that
    caused it (the ledger's ``disk.*`` edge holds their bytes).

    ``host_budget_bytes=0`` is the out-of-core store: every write goes
    straight to the log and RAM holds the per-chunk index plus the one
    zero blob. (There is no "unbounded" budget — a run that needs none
    uses :class:`CompressedChunkStore`.)

    ``path=None`` gives the store its own ``memqsim_*.log`` temp file,
    unlinked as soon as it is open (``path`` keeps the name it had), so no
    exit of the process, a SIGKILL included, leaves it behind; a
    caller-supplied ``path`` is closed but never deleted.
    """

    def __init__(
        self,
        layout: ChunkLayout,
        compressor: Compressor,
        path: Union[str, Path, None],
        host_budget_bytes: int,
        tracker: Optional[MemoryTracker] = None,
        compact_threshold: float = 0.5,
    ):
        super().__init__(layout, compressor, tracker)
        if not 0.0 < compact_threshold <= 1.0:
            raise ValueError("compact_threshold must be in (0, 1]")
        if host_budget_bytes < 0:
            raise ValueError("host_budget_bytes must be >= 0")
        self.compact_threshold = float(compact_threshold)
        #: unique RAM blob bytes allowed (0 = every blob on disk)
        self.host_budget_bytes = int(host_budget_bytes)
        self._log = BlobLog(path, tracker=self.tracker)
        self.path = self._log.path
        # Runs at close(), at garbage collection or at interpreter exit,
        # whichever comes first, and only once.
        self._finalizer = weakref.finalize(self, self._log.close)
        # chunk -> (offset, length, crc32) log record; exclusive with
        # _blobs[chunk]
        self._disk: List[Optional[tuple]] = [None] * layout.num_chunks
        # RAM-resident non-shared chunks, oldest-touched first (the
        # schedule-less spill fallback); zero-shared chunks never enter.
        self._ram_order: "OrderedDict[int, None]" = OrderedDict()
        self._host_bytes = 0  # unique RAM blob bytes (zero counted once)
        self.tier_stats = TierStats()
        self.compactions = 0

    def report_hops_to(self, timeline=None):
        # The log books its appends and reads through this store, and
        # only while there is a timeline to book on (no cycle otherwise).
        self._log.book = self.book if timeline is not None else None
        return super().report_hops_to(timeline)

    # -- placement ------------------------------------------------------------

    def _drop_location(self, chunk: int) -> None:
        """Release whatever tier currently backs ``chunk``."""
        blob = self._blobs[chunk]
        if blob is not None:
            self._blobs[chunk] = None
            if blob is self._zero_blob:
                self._zero_refs -= 1
                if self._zero_refs == 0:
                    self.tracker.free(RAM_CATEGORY, len(blob))
                    self._host_bytes -= len(blob)
            else:
                self._ram_order.pop(chunk, None)
                self.tracker.free(RAM_CATEGORY, len(blob))
                self._host_bytes -= len(blob)
            return
        rec = self._disk[chunk]
        if rec is not None:
            self._disk[chunk] = None
            self._log.free(rec)
            self._maybe_compact()

    def _set_blob(self, chunk: int, blob: bytes, shared: bool = False) -> None:
        self._drop_location(chunk)
        if shared:
            self._zero_refs += 1
            if self._zero_refs == 1:
                self.tracker.alloc(RAM_CATEGORY, len(blob))
                self._host_bytes += len(blob)
            self._blobs[chunk] = blob
            return
        self._blobs[chunk] = blob
        self._ram_order[chunk] = None
        self.tracker.alloc(RAM_CATEGORY, len(blob))
        self._host_bytes += len(blob)
        self._enforce_budget()

    def _enforce_budget(self) -> None:
        while self._host_bytes > self.host_budget_bytes and self._ram_order:
            self._spill(self._pick_spill_victim())

    def _pick_spill_victim(self) -> int:
        if self.schedule is not None:
            # Plan-coldest: first maximum over resident chunks.
            return self.schedule.coldest(self._ram_order)
        return next(iter(self._ram_order))  # least recently touched

    def _spill(self, chunk: int) -> None:
        blob = self._blobs[chunk]
        # Append first: an append that fails leaves the chunk where it was.
        rec = self._log.append(blob)
        self._blobs[chunk] = None
        self._ram_order.pop(chunk, None)
        self.tracker.free(RAM_CATEGORY, len(blob))
        self._host_bytes -= len(blob)
        self._disk[chunk] = rec
        self.tier_stats.spills += 1

    def _promote(self, chunk: int, rec: tuple) -> None:
        # A lane prefetch already read this record (a write would have
        # dropped the prefetch): install those bytes, read it once.
        entry = self._prefetched.get(chunk)
        blob = entry[1] if entry is not None else self._log.read(rec)
        self._disk[chunk] = None
        self._log.free(rec)
        self._blobs[chunk] = blob
        self._ram_order[chunk] = None
        self.tracker.alloc(RAM_CATEGORY, len(blob))
        self._host_bytes += len(blob)
        self.tier_stats.promotions += 1
        self._maybe_compact()

    # -- advisory prefetch ----------------------------------------------------

    def will_need(self, chunks, group: int = -1, resident=()) -> None:
        """Promote the given chunks' blobs into RAM ahead of use.

        The scheduler calls this with a group pass's members before
        streaming them; the spill choice that rebalancing forces is
        plan-aware, so promoted chunks (imminent next use) never bounce
        straight back to disk while a budget-respecting placement exists.
        A blob larger than the whole budget (any blob, at budget 0) has no
        such placement and stays on disk: promoting it would only re-append
        it to the log.
        """
        self._group = group  # promotions and spills are of this pass
        promoted = False
        for chunk in chunks:
            rec = self._disk[chunk]
            if rec is not None and rec[1] <= self.host_budget_bytes:
                self._promote(chunk, rec)
                promoted = True
        if promoted:
            self._enforce_budget()
        super().will_need(chunks, group, resident)

    # -- chunk / blob I/O -----------------------------------------------------

    def _read_blob(self, chunk: int) -> Optional[bytes]:
        blob = self._blobs[chunk]
        if blob is not None:
            if blob is not self._zero_blob and chunk in self._ram_order:
                self._ram_order.move_to_end(chunk)
            return blob
        rec = self._disk[chunk]
        if rec is None:
            return None
        # Served from the log without promotion (a disk_read row).
        return self._log.read(rec)

    def is_on_disk(self, chunk: int) -> bool:
        return self._disk[chunk] is not None

    def _relabel(self, perm) -> None:
        inv = [0] * len(perm)
        for dst, src in enumerate(perm):
            inv[src] = dst
        old_blobs = list(self._blobs)
        old_disk = list(self._disk)
        for dst, src in enumerate(perm):
            self._blobs[dst] = old_blobs[src]
            self._disk[dst] = old_disk[src]
        # Relabel the recency order too, preserving its ordering — pure
        # index bookkeeping; no blob moves, no disk traffic.
        self._ram_order = OrderedDict(
            (inv[c], None) for c in self._ram_order)

    # -- footprint queries ----------------------------------------------------

    def host_blob_bytes(self) -> int:
        """Unique RAM-tier blob bytes (the budgeted quantity)."""
        return self._host_bytes

    def disk_blob_bytes(self) -> int:
        """Live disk-tier blob bytes (excludes log garbage)."""
        return self._log.live_bytes

    def compressed_nbytes(self) -> int:
        self.flush()
        return self._host_bytes + self._log.live_bytes

    def blob_sizes(self) -> List[int]:
        self.flush()
        sizes = []
        for chunk in range(self.layout.num_chunks):
            blob = self._blobs[chunk]
            if blob is not None:
                sizes.append(len(blob))
                continue
            rec = self._disk[chunk]
            sizes.append(0 if rec is None else rec[1])
        return sizes

    # -- log compaction -------------------------------------------------------

    @property
    def file_bytes(self) -> int:
        return self._log.file_bytes

    @property
    def garbage_fraction(self) -> float:
        return self._log.garbage_fraction

    def _maybe_compact(self) -> None:
        if self._log.file_bytes < 1 << 16:
            return
        if self._log.garbage_fraction >= self.compact_threshold:
            self.compact()

    def compact(self) -> None:
        """Rewrite the log keeping only live (disk-resident) records."""
        records: Dict[int, tuple] = {}
        for rec in self._disk:
            if rec is not None:
                records.setdefault(id(rec), rec)
        new_pos = self._log.rewrite(records)
        for i, rec in enumerate(self._disk):
            if rec is not None:
                self._disk[i] = new_pos[id(rec)]
        self.compactions += 1

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Close the log (one the store created was unlinked when opened)."""
        self._finalizer()

    def __enter__(self) -> "TieredChunkStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<TieredChunkStore host={self._host_bytes:,}B"
            f"/{self.host_budget_bytes:,}B disk={self._log.live_bytes:,}B "
            f"spills={self.tier_stats.spills} "
            f"promotions={self.tier_stats.promotions}>"
        )


class MemoryHierarchy:
    """The unified plan-driven memory stack MemQSim runs against.

    Composes a base compressed store (RAM-only or tiered), an optional
    decompressed-chunk cache in front of it, and — once a compiled plan
    exists — the one :class:`AccessSchedule` every schedule-aware layer
    shares. ``store_like`` is what the scheduler streams against.
    """

    def __init__(self, store: CompressedChunkStore,
                 cache: Optional[ChunkCache] = None):
        self.store = store
        self.cache = cache
        self.schedule: Optional[AccessSchedule] = None

    @classmethod
    def build(
        cls,
        store: CompressedChunkStore,
        *,
        cache_chunks: int = 0,
        cache_policy: str = "mru",
        tracker: Optional[MemoryTracker] = None,
    ) -> "MemoryHierarchy":
        cache = None
        if cache_chunks:
            cache = ChunkCache(store, cache_chunks, cache_policy, tracker)
        return cls(store, cache)

    @property
    def store_like(self):
        """The top of the stack — what the scheduler reads and writes."""
        return self.cache if self.cache is not None else self.store

    def needs_schedule(self) -> bool:
        return ((self.cache is not None and self.cache.policy == "belady")
                or isinstance(self.store, TieredChunkStore)
                or self.store.lane is not None)

    def attach_plan(self, passes) -> Optional[AccessSchedule]:
        """Derive the access schedule of ``passes`` (the run's pass
        schedule) and attach it everywhere.

        Returns the shared :class:`AccessSchedule` (which the scheduler
        must advance via ``begin_pass``/``barrier``), or ``None`` when no
        layer is schedule-aware — an unattached Belady cache falls back
        to MRU and a tiered store to LRU spilling, so ad-hoc runs without
        a plan (serve ad-hoc loads, direct store use) stay correct.
        """
        if not self.needs_schedule():
            return None
        self.schedule = AccessSchedule(passes)
        if self.cache is not None:
            self.cache.attach_schedule(self.schedule)
        self.store.schedule = self.schedule
        return self.schedule

    def describe(self) -> Dict[str, object]:
        """Tier topology for results/telemetry exposition."""
        tiers: List[Dict[str, object]] = []
        if self.cache is not None:
            tiers.append({
                "tier": "decompressed_cache",
                "policy": self.cache.policy,
                "capacity_chunks": self.cache.capacity,
            })
        if isinstance(self.store, TieredChunkStore):
            tiers.append({
                "tier": "host_blobs",
                "budget_bytes": self.store.host_budget_bytes,
                "resident_bytes": self.store.host_blob_bytes(),
            })
            tiers.append({
                "tier": "disk_blobs",
                "live_bytes": self.store.disk_blob_bytes(),
                "file_bytes": self.store.file_bytes,
                "spills": self.store.tier_stats.spills,
                "promotions": self.store.tier_stats.promotions,
            })
        else:
            tiers.append({"tier": type(self.store).__name__})
        return {
            "tiers": tiers,
            "schedule_attached": self.schedule is not None,
            "schedule_length": len(self.schedule) if self.schedule else 0,
        }

    def __repr__(self) -> str:
        return (f"<MemoryHierarchy cache={self.cache!r} "
                f"store={type(self.store).__name__} "
                f"schedule={'yes' if self.schedule else 'no'}>")
