"""Decompressed-chunk cache with write-back (paper design challenge 3).

The paper criticizes prior compressed simulation for poor data locality and
low cache hit rates. This cache sits in front of the
:class:`~repro.memory.chunkstore.CompressedChunkStore` and keeps a bounded
number of *decompressed* chunks resident:

* ``load`` hits skip decompression entirely;
* ``store`` marks the cached copy dirty and skips recompression until the
  chunk is evicted (**write-back**) — consecutive stages touching the same
  chunk pay the codec once, not per stage;
* eviction policy is pluggable (:class:`EvictionPolicy`): classic ``lru``;
  ``mru``, the right heuristic for the cyclic full-sweep access pattern
  chunked simulation generates (LRU evicts exactly the chunk that will be
  needed next; MRU pins a stable subset); and ``belady``, the *optimal*
  policy — evict the resident chunk with the farthest next use. Belady is
  normally a thought experiment, but the
  :class:`~repro.compile.CompiledPlan` fixes the entire access sequence
  before execution, so here it is achievable: attach an
  :class:`~repro.memory.hierarchy.AccessSchedule` and the cache replays
  the plan's future exactly. Off-schedule accesses (ad-hoc loads in serve
  jobs, result queries) fall back to MRU.

The cache reports hits/misses/write-backs so the locality experiment (A7)
can show hit rate and codec-time savings versus capacity and policy.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..telemetry import NULL_TELEMETRY, get_logger
from .accounting import MemoryTracker
from .chunkstore import CompressedChunkStore

__all__ = [
    "ChunkCache",
    "CacheStats",
    "EvictionPolicy",
    "LruPolicy",
    "MruPolicy",
    "BeladyPolicy",
    "CACHE_POLICIES",
    "make_policy",
]

CATEGORY = "chunk_cache"
_INF = float("inf")

log = get_logger(__name__)


@dataclass
class CacheStats:
    """Hit/miss accounting."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    write_hits: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class EvictionPolicy:
    """Victim selection for :class:`ChunkCache`.

    ``entries`` passed to :meth:`victim` is the cache's ``OrderedDict``
    (iteration order = recency, oldest first). Hooks are called on every
    cache event so stateful policies (Belady) can track per-chunk
    metadata.
    """

    name = "?"

    def on_access(self, chunk: int, op: str) -> None:
        """An access (``op`` = ``"r"``/``"w"``) is about to hit the cache."""

    def victim(self, entries: "OrderedDict[int, list]") -> int:
        raise NotImplementedError

    def on_remove(self, chunk: int) -> None:
        """``chunk`` left the cache (eviction, invalidation, zeroing)."""

    def on_clear(self) -> None:
        """The cache was flushed empty."""

    def attach_schedule(self, schedule) -> None:
        """Attach a plan-exact schedule; default policies ignore it."""


class LruPolicy(EvictionPolicy):
    name = "lru"

    def victim(self, entries) -> int:
        return next(iter(entries))


class MruPolicy(EvictionPolicy):
    """Evict the most recently used: pins a stable subset under cyclic
    sweeps, the paper's default."""

    name = "mru"

    def victim(self, entries) -> int:
        return next(reversed(entries))


class BeladyPolicy(EvictionPolicy):
    """Plan-driven Belady/MIN: evict the resident chunk whose next use is
    farthest in the future.

    Next-use positions come from an attached
    :class:`~repro.memory.hierarchy.AccessSchedule`; every cache access is
    matched against the schedule cursor (``observe``), which yields the
    access's barrier-bounded next-use index. What counts is the next
    *read*: a chunk just read is overwritten by its own pass before it is
    read again, and a write makes a chunk resident without a miss, so it
    ranks as never needed until that write lands (ranking it by the write
    let plain MRU, which drops exactly that chunk, take fewer misses).
    Chunks whose accesses fall
    off-schedule (no schedule attached, ad-hoc loads) carry no next-use
    and evict first, most-recent first — i.e. the policy degrades to
    exact MRU, never worse than the previous default.
    """

    name = "belady"

    def __init__(self, schedule=None):
        self.schedule = schedule
        # chunk -> barrier-bounded next-use position; None = off-schedule
        self._next_use: dict = {}

    def attach_schedule(self, schedule) -> None:
        self.schedule = schedule

    def on_access(self, chunk: int, op: str) -> None:
        nu = self.schedule.observe(chunk, op) \
            if self.schedule is not None else None
        if op == "r" and nu is not None:
            # A scheduled read is followed by its own pass's write of the
            # same chunk, and a write makes a chunk resident for free: the
            # copy is worth nothing until then, so it may go first.
            nu = _INF
        self._next_use[chunk] = nu

    def victim(self, entries) -> int:
        # First maximum in recency order; finite next-use positions are
        # unique (they are schedule indices), so the only ties are at
        # infinity — not read again before it is rewritten or before the
        # next barrier's flush, where no choice costs a miss the others
        # save. Off-schedule entries outrank even infinity and break ties
        # MRU-wise (latest wins).
        victim = None
        victim_nu = -1.0
        unknown = None
        for chunk in entries:
            nu = self._next_use.get(chunk)
            if nu is None:
                unknown = chunk
            elif victim is None or nu > victim_nu:
                victim, victim_nu = chunk, nu
        return unknown if unknown is not None else victim

    def on_remove(self, chunk: int) -> None:
        self._next_use.pop(chunk, None)

    def on_clear(self) -> None:
        self._next_use.clear()


CACHE_POLICIES = ("lru", "mru", "belady")


def make_policy(name: str) -> EvictionPolicy:
    """Instantiate an eviction policy by name (``lru``/``mru``/``belady``)."""
    if name == "lru":
        return LruPolicy()
    if name == "mru":
        return MruPolicy()
    if name == "belady":
        return BeladyPolicy()
    raise ValueError(
        f"policy must be {'|'.join(CACHE_POLICIES)}, got {name!r}")


class ChunkCache:
    """Bounded write-back cache over a compressed chunk store.

    Exposes the same ``load``/``store``/``permute``/``zero_chunk`` surface
    as the store (plus :meth:`flush`); any other attribute delegates to the
    wrapped store, so the cache is a drop-in replacement wherever a store
    is expected.
    """

    def __init__(
        self,
        store: CompressedChunkStore,
        capacity_chunks: int,
        policy: str = "mru",
        tracker: Optional[MemoryTracker] = None,
        telemetry=None,
    ):
        if capacity_chunks < 1:
            raise ValueError("capacity_chunks must be >= 1")
        self.inner = store
        self.capacity = int(capacity_chunks)
        self.policy = policy
        self._policy = make_policy(policy)
        self.dtype = np.dtype(getattr(store, "dtype", np.complex128))
        self.tracker = tracker if tracker is not None else store.tracker
        self.telemetry = telemetry if telemetry is not None else \
            getattr(store, "telemetry", NULL_TELEMETRY)
        self.cache_stats = CacheStats()
        # chunk id -> (array, dirty); insertion order = recency (last=MRU).
        self._entries: "OrderedDict[int, list]" = OrderedDict()

    # -- delegation ---------------------------------------------------------

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def attach_schedule(self, schedule) -> None:
        """Feed the plan-exact access schedule to the eviction policy."""
        self._policy.attach_schedule(schedule)

    def will_need(self, chunks, group: int = -1) -> None:
        """Hints stop here for chunks the cache holds: no blob of theirs
        will be read, so none is promoted or decompressed ahead."""
        held = self._entries
        self.inner.will_need([c for c in chunks if c not in held], group,
                             held)

    # -- cache mechanics ------------------------------------------------------

    def _touch(self, chunk: int) -> None:
        self._entries.move_to_end(chunk)

    def _insert(self, chunk: int, data: np.ndarray, dirty: bool,
                owned: bool = False) -> None:
        """Make ``data`` chunk's cached copy. ``owned``: nobody else holds
        ``data`` (a fresh decode), so it is installed as it is."""
        if chunk in self._entries:
            entry = self._entries[chunk]
            entry[0][:] = data
            entry[1] = entry[1] or dirty
            self._touch(chunk)
            return
        while len(self._entries) >= self.capacity:
            self._evict_one()
        if owned and data.dtype == self.dtype:
            arr = data
        else:
            arr = np.array(data, dtype=self.dtype, copy=True)
        self._entries[chunk] = [arr, dirty]
        self.tracker.alloc(CATEGORY, arr.nbytes)

    def _evict_one(self) -> None:
        if not self._entries:
            return
        chunk = self._policy.victim(self._entries)
        entry = self._entries.pop(chunk)
        self._policy.on_remove(chunk)
        arr, dirty = entry
        if dirty:
            self.inner.store(chunk, arr)
            self.cache_stats.writebacks += 1
            if self.telemetry.enabled:
                self.telemetry.metrics.counter("cache.writeback").inc()
        self.tracker.free(CATEGORY, arr.nbytes)
        self.cache_stats.evictions += 1
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("cache.eviction").inc()

    def flush(self) -> None:
        """Write back every dirty chunk and empty the cache."""
        dirty_n = 0
        for chunk, (arr, dirty) in list(self._entries.items()):
            if dirty:
                self.inner.store(chunk, arr)
                self.cache_stats.writebacks += 1
                dirty_n += 1
            self.tracker.free(CATEGORY, arr.nbytes)
        if self.telemetry.enabled:
            if dirty_n:
                self.telemetry.metrics.counter("cache.writeback").inc(dirty_n)
            if self._entries:
                self.telemetry.emit("cache.flush",
                                    resident=len(self._entries),
                                    written_back=dirty_n)
        log.debug("cache flush: %d resident, %d written back",
                  len(self._entries), dirty_n)
        self._entries.clear()
        self._policy.on_clear()
        self.inner.flush()

    @property
    def resident_chunks(self) -> int:
        return len(self._entries)

    # -- store surface ------------------------------------------------------------

    def load(self, chunk: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        self._policy.on_access(chunk, "r")
        entry = self._entries.get(chunk)
        if entry is not None:
            self.cache_stats.hits += 1
            data = entry[0]
            if self.telemetry.enabled:
                self.telemetry.metrics.counter("cache.hit").inc()
                # Bytes *served* from the cache: codec traffic avoided.
                self.telemetry.traffic.record("cache", "hit", data.nbytes)
            self._touch(chunk)
            if out is not None:
                out[: data.shape[0]] = data
                return out
            return data.copy()
        self.cache_stats.misses += 1
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("cache.miss").inc()
            # Bytes fetched *past* the cache (the inner load's decompress).
            self.telemetry.traffic.record(
                "cache", "miss", self.inner.layout.chunk_nbytes)
        data = self.inner.load(chunk)
        self._insert(chunk, data, dirty=False, owned=True)
        if out is not None:
            out[: data.shape[0]] = data
            return out
        return data.copy()

    def store(self, chunk: int, data: np.ndarray) -> None:
        if data.shape[0] != self.inner.layout.chunk_size:
            raise ValueError("buffer size mismatch")
        self._policy.on_access(chunk, "w")
        if chunk in self._entries:
            self.cache_stats.write_hits += 1
        self._insert(chunk, data, dirty=True)

    def zero_chunk(self, chunk: int) -> None:
        entry = self._entries.pop(chunk, None)
        if entry is not None:
            self.tracker.free(CATEGORY, entry[0].nbytes)
            self._policy.on_remove(chunk)
        self.inner.zero_chunk(chunk)

    def is_zero_chunk(self, chunk: int) -> bool:
        """Coherent with the cache: a dirty entry is newer than whatever
        blob — the interned zero blob included — sits under it."""
        entry = self._entries.get(chunk)
        if entry is not None and entry[1]:
            return False
        return self.inner.is_zero_chunk(chunk)

    def get_blob(self, chunk: int):
        """Coherent raw-blob read: write back a dirty cached copy first."""
        entry = self._entries.get(chunk)
        if entry is not None and entry[1]:
            self.inner.store(chunk, entry[0])
            entry[1] = False
            self.cache_stats.writebacks += 1
            if self.telemetry.enabled:
                self.telemetry.metrics.counter("cache.writeback").inc()
        return self.inner.get_blob(chunk)

    def permute(self, perm) -> None:
        # Blob permutation happens on compressed data; flush first so the
        # relabeling sees every update, then drop the (now stale) cache.
        self.flush()
        self.inner.permute(perm)

    def to_statevector(self) -> np.ndarray:
        self.flush()
        return self.inner.to_statevector()

    def compressed_nbytes(self) -> int:
        self.flush()
        return self.inner.compressed_nbytes()

    def compression_ratio(self) -> float:
        self.flush()
        return self.inner.compression_ratio()

    def __repr__(self) -> str:
        s = self.cache_stats
        return (
            f"<ChunkCache {self.policy} {self.resident_chunks}/{self.capacity} "
            f"hit_rate={s.hit_rate:.2f} writebacks={s.writebacks}>"
        )
