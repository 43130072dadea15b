"""The compiled-plan cache: pay the offline stage once per circuit *shape*.

The planner/compiler work — stage partitioning, group placement, gate
lowering and fusion — depends only on a circuit's shape and on the
plan-affecting config knobs, never on amplitudes or rotation angles. A
variational loop (the same ansatz with new angles every iteration) and a
service's repeat submissions can therefore reuse one lowered plan.

:class:`PlanCache` is a small thread-safe LRU keyed on

    (shape from ``Circuit.shape_and_values()``, ``MemQSimConfig.plan_key()``,
     resolved ``chunk_qubits``, whether the run starts from |0...0>)

— exactly the tuple :class:`~repro.core.MemQSim` builds (a zero start plans
the circuit with its swaps hoisted away, any other start the circuit as
written: two plans). Every simulator
has a private one; the serve daemon hands one instance to all its jobs. An
entry is a :class:`CachedPlan`: the plan as last bound, with the parameter
values it was bound to. A lookup with the same values is a **hit** (nothing
to do), with other values a **rebind** (the plan's template is bound to the
new values, no planning or lowering), and without an entry a **miss**.
A miss is single-flight: the caller that fills it holds the key
(:meth:`PlanCache.claim`), and identical concurrent callers wait for the
entry instead of planning it again. Entries are immutable and replaced
whole, so concurrent jobs share them without copying; the one thing an
entry adds to over time, its pass schedule per start support set, is a
pure function of the key and that start. Counts surface as
the ``serve.plan_cache.*`` counters on the cache's telemetry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, Hashable, Iterator,
                    Optional, Sequence, Tuple)

from ..telemetry import NULL_TELEMETRY

__all__ = ["CachedPlan", "PlanCache"]

#: default number of distinct (circuit shape, config) plans kept resident
DEFAULT_CAPACITY = 64
#: pass schedules kept per plan, one per start support set
_SCHEDULES_KEPT = 8
_SCHEDULES_LOCK = threading.Lock()


@dataclass(frozen=True)
class CachedPlan:
    """What the cache keeps per key."""

    #: the :class:`~repro.pipeline.PlanReport` (the same for every circuit
    #: of the shape)
    plan: Any
    #: the parameter values ``bound`` was bound to
    values: bytes
    #: the :class:`~repro.compile.CompiledPlan`; ``bound.template`` binds
    #: other values
    bound: Any
    #: per stage of ``bound``, its :class:`~repro.pipeline.StageProgram`
    #: (``None`` for a permutation stage): the ops as already lowered into
    #: each group's frame. The key fixes shape, plan knobs and
    #: ``chunk_qubits``, so they hold for every run the entry serves.
    programs: Any
    #: the plan's pass schedules by start (see :meth:`pass_schedule`);
    #: shared with the entry a rebind replaces this one with, since other
    #: parameter values move no group and no permutation
    schedules: Dict[FrozenSet[int], Tuple[Any, ...]] = field(
        default_factory=dict, compare=False, repr=False)

    def pass_schedule(self, support: FrozenSet[int],
                      predict: Callable[[], Sequence[Any]]
                      ) -> Tuple[Any, ...]:
        """The pass schedule this plan runs from a start whose support set
        is ``support``: ``predict()`` the first time, kept after that (the
        ``_SCHEDULES_KEPT`` latest starts)."""
        passes = self.schedules.get(support)
        if passes is None:
            passes = tuple(predict())
            with _SCHEDULES_LOCK:
                while len(self.schedules) >= _SCHEDULES_KEPT:
                    del self.schedules[next(iter(self.schedules))]
                self.schedules[support] = passes
        return passes


class PlanCache:
    """Thread-safe LRU cache of compiled plans."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY, telemetry=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        #: signalled whenever an entry is stored or a claim is let go
        self._settled = threading.Condition(self._lock)
        self._filling: set = set()  # keys a claim holder is planning
        self.hits = 0
        self.rebinds = 0
        self.misses = 0
        self.evictions = 0

    def _find(self, key: Hashable, values: Optional[bytes]
              ) -> Tuple[Optional[Any], str]:
        """The entry for ``key`` and the outcome counted (lock held)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None, "miss"
        self._entries.move_to_end(key)
        if values is None or entry.values == values:
            self.hits += 1
            return entry, "hit"
        self.rebinds += 1
        return entry, "rebind"

    def _count(self, outcome: str) -> None:
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                f"serve.plan_cache.{outcome}").inc()

    def lookup(self, key: Hashable, values: Optional[bytes] = None
               ) -> Optional[Any]:
        """The cached entry for ``key``, or ``None``.

        Counts a miss, a hit, or — when ``values`` is given and the entry
        was bound to other values — a rebind.
        """
        with self._lock:
            entry, outcome = self._find(key, values)
        self._count(outcome)
        return entry

    @contextmanager
    def claim(self, key: Hashable, values: Optional[bytes] = None
              ) -> Iterator[Optional[Any]]:
        """:meth:`lookup` for a caller that fills a miss itself.

        On a miss the caller holds ``key`` until it leaves the block, and
        is expected to :meth:`store` the entry before then. Another claim
        of the same key meanwhile waits, then finds what was stored — or,
        if the holder left without storing (it raised), claims the miss
        itself. Hits and rebinds hold nothing.
        """
        with self._lock:
            while key in self._filling and key not in self._entries:
                self._settled.wait()
            entry, outcome = self._find(key, values)
            if entry is None:
                self._filling.add(key)
        self._count(outcome)
        try:
            yield entry
        finally:
            if entry is None:
                with self._lock:
                    self._filling.discard(key)
                    self._settled.notify_all()

    def store(self, key: Hashable, entry: Any) -> None:
        """Insert (or replace) ``key``; evicts least-recently-used."""
        evicted = 0
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
            self._settled.notify_all()
        if evicted and self.telemetry.enabled:
            self.telemetry.metrics.counter("serve.plan_cache.evict").inc(
                evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "rebinds": self.rebinds,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        s = self.stats()
        return (f"<PlanCache {s['size']}/{s['capacity']} "
                f"hits={s['hits']} rebinds={s['rebinds']} "
                f"misses={s['misses']}>")
