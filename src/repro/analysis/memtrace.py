"""Chunk access-trace analysis: reuse distance, what-if curves, Belady.

Input is the access trace a
:class:`~repro.memory.traffic.ChunkAccessRecorder` captured: a list of
``(stage, chunk, op)`` with op ``"r"`` (read), ``"w"`` (write) or ``"b"``
(barrier — a permutation stage, where chunk ids are relabeled and any
cache in front of the store is flushed; reuse does not survive it).

The analyses mirror the live :class:`~repro.memory.cache.ChunkCache`'s
semantics exactly: reads hit or miss, writes insert/touch without counting
(the write-back cache never decompresses on a store), and both update
recency; barriers empty the cache.

* :func:`reuse_distances` / :func:`reuse_distance_histogram` — LRU stack
  distance per access (distinct other chunks touched since the previous
  access; ``None`` = cold / first after a barrier).
* :func:`hit_rate_curve` — the stack-distance what-if: read hit rate as a
  function of cache capacity, for *every* capacity, from one pass over
  the trace (the inclusion property makes the curve exact, not sampled).
* :func:`simulate_cache` — direct simulation of any live eviction policy
  (``lru`` | ``mru`` | ``belady``), miss-for-miss identical to the
  corresponding ``ChunkCache`` configuration; :func:`simulate_lru` is the
  LRU shorthand (cross-check + the capacity actually configured).
* :func:`belady_misses` — the Belady/MIN optimal miss count: evict the
  resident chunk whose next use is farthest in the future. Since the
  :class:`~repro.compile.CompiledPlan` fixes the whole schedule before
  execution, this bound is *achievable* — it is the quantitative case for
  the plan-driven eviction item on the roadmap.
* :func:`analyze_trace` — everything above as one report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "reuse_distances",
    "reuse_distance_histogram",
    "hit_rate_curve",
    "simulate_cache",
    "simulate_lru",
    "belady_misses",
    "MemTraceReport",
    "analyze_trace",
]

_INF = float("inf")


def _accesses(trace: Sequence[Tuple[int, int, str]]):
    for stage, chunk, op in trace:
        if op not in ("r", "w", "b"):
            raise ValueError(f"unknown access op {op!r}")
        yield stage, chunk, op


def reuse_distances(
    trace: Sequence[Tuple[int, int, str]],
) -> List[Optional[int]]:
    """LRU stack distance for every r/w access, in trace order.

    Distance = number of *distinct other* chunks accessed since this
    chunk's previous access (0 = immediate reuse); ``None`` = first access
    or first after a barrier. A read with distance ``d`` hits an LRU cache
    of capacity ``C`` iff ``d < C``.
    """
    stack: List[int] = []  # last = most recently used
    out: List[Optional[int]] = []
    for _stage, chunk, op in _accesses(trace):
        if op == "b":
            stack.clear()
            continue
        try:
            pos = stack.index(chunk)
        except ValueError:
            out.append(None)
            stack.append(chunk)
        else:
            out.append(len(stack) - 1 - pos)
            del stack[pos]
            stack.append(chunk)
    return out


def reuse_distance_histogram(
    trace: Sequence[Tuple[int, int, str]],
) -> Dict[str, int]:
    """``{distance: count}`` with cold/post-barrier accesses under "cold"."""
    hist: Dict[str, int] = {}
    for d in reuse_distances(trace):
        key = "cold" if d is None else str(d)
        hist[key] = hist.get(key, 0) + 1
    return hist


def hit_rate_curve(
    trace: Sequence[Tuple[int, int, str]],
    max_capacity: Optional[int] = None,
) -> Tuple[List[int], List[float]]:
    """Exact LRU read hit rate vs. cache capacity, one pass.

    Returns ``(capacities, hit_rates)`` for capacities ``1..max_capacity``
    (default: the largest finite read distance + 1, i.e. the point where
    the curve saturates).
    """
    # Distances aligned with r/w accesses; filter to reads.
    dists = reuse_distances(trace)
    read_dists: List[Optional[int]] = []
    i = 0
    for _stage, _chunk, op in _accesses(trace):
        if op == "b":
            continue
        if op == "r":
            read_dists.append(dists[i])
        i += 1
    reads = len(read_dists)
    finite = [d for d in read_dists if d is not None]
    if max_capacity is None:
        max_capacity = (max(finite) + 1) if finite else 1
    max_capacity = max(1, int(max_capacity))
    # counts[d] = number of reads with that exact stack distance
    counts = [0] * (max_capacity + 1)
    for d in finite:
        if d < len(counts):
            counts[d] += 1
    capacities = list(range(1, max_capacity + 1))
    rates: List[float] = []
    hits = 0
    for cap in capacities:
        hits += counts[cap - 1]  # reads with d == cap-1 start hitting at cap
        rates.append(hits / reads if reads else 0.0)
    return capacities, rates


def simulate_cache(
    trace: Sequence[Tuple[int, int, str]],
    capacity: int,
    policy: str = "lru",
) -> Tuple[int, int]:
    """Direct cache simulation; returns ``(read hits, read misses)``.

    Matches the live ``ChunkCache(policy=...)`` miss-for-miss: reads hit
    or miss, writes insert/touch without counting, both update recency,
    barriers flush. ``policy`` is ``"lru"`` (evict least recent),
    ``"mru"`` (evict most recent — right for cyclic sweeps), or
    ``"belady"`` (farthest next use over the trace itself — what the live
    cache achieves when fed the plan's access schedule).
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    if policy == "belady":
        reads = sum(1 for _s, _c, op in _accesses(trace) if op == "r")
        misses = belady_misses(trace, capacity)
        return reads - misses, misses
    if policy not in ("lru", "mru"):
        raise ValueError(f"policy must be lru|mru|belady, got {policy!r}")
    resident: Dict[int, None] = {}  # insertion order = recency
    hits = misses = 0
    for _stage, chunk, op in _accesses(trace):
        if op == "b":
            resident.clear()
            continue
        if chunk in resident:
            if op == "r":
                hits += 1
            resident.pop(chunk)
            resident[chunk] = None
            continue
        if op == "r":
            misses += 1
        while len(resident) >= capacity:
            victim = next(iter(resident)) if policy == "lru" \
                else next(reversed(resident))
            resident.pop(victim)
        resident[chunk] = None
    return hits, misses


def simulate_lru(
    trace: Sequence[Tuple[int, int, str]],
    capacity: int,
) -> Tuple[int, int]:
    """LRU shorthand for :func:`simulate_cache`."""
    return simulate_cache(trace, capacity, "lru")


def belady_misses(
    trace: Sequence[Tuple[int, int, str]],
    capacity: int,
) -> int:
    """Read misses under Belady/MIN optimal eviction (farthest next use).

    Same insertion rules as the live cache (reads and writes both make a
    chunk resident; only read misses count), so the result is a true
    lower bound on any replacement policy's read misses — LRU included.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    seq = [(s, c, op) for s, c, op in _accesses(trace)]
    # next_use[i]: index of chunk's next access within its barrier epoch,
    # if that access is a read. A write makes the chunk resident for free,
    # so a copy that is overwritten before it is read again is dead.
    next_use = [_INF] * len(seq)
    last_seen: Dict[int, int] = {}
    for i in range(len(seq) - 1, -1, -1):
        _s, chunk, op = seq[i]
        if op == "b":
            # Looking backwards past a barrier, earlier accesses must not
            # see reuse on the other side of it.
            last_seen.clear()
            continue
        nxt = last_seen.get(chunk)
        if nxt is not None and seq[nxt][2] == "r":
            next_use[i] = nxt
        last_seen[chunk] = i
    resident: Dict[int, float] = {}  # chunk -> next use index
    misses = 0
    for i, (_s, chunk, op) in enumerate(seq):
        if op == "b":
            resident.clear()
            continue
        if chunk in resident:
            resident[chunk] = next_use[i]
            continue
        if op == "r":
            misses += 1
        if len(resident) >= capacity:
            victim = max(resident, key=resident.__getitem__)
            del resident[victim]
        resident[chunk] = next_use[i]
    return misses


@dataclass
class MemTraceReport:
    """Everything the memtrace analysis derives from one trace."""

    accesses: int
    reads: int
    writes: int
    barriers: int
    distinct_chunks: int
    histogram: Dict[str, int]
    curve_capacities: List[int]
    curve_hit_rates: List[float]
    capacity: int
    lru_hits: int
    lru_misses: int
    belady_misses: int
    #: read misses the live ChunkCache actually took (when available)
    measured_lru_misses: Optional[int] = None
    #: the what-if policy this report was asked to replay ("lru" default)
    policy: str = "lru"
    policy_hits: Optional[int] = None
    policy_misses: Optional[int] = None
    #: live misses under ``policy`` (== measured_lru_misses when "lru")
    measured_misses: Optional[int] = None

    @property
    def gap(self) -> int:
        """Misses the LRU policy takes beyond the optimal lower bound."""
        base = self.measured_lru_misses if self.measured_lru_misses \
            is not None else self.lru_misses
        return base - self.belady_misses

    @property
    def gap_fraction(self) -> float:
        base = self.measured_lru_misses if self.measured_lru_misses \
            is not None else self.lru_misses
        return self.gap / base if base else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "accesses": self.accesses,
            "reads": self.reads,
            "writes": self.writes,
            "barriers": self.barriers,
            "distinct_chunks": self.distinct_chunks,
            "reuse_histogram": self.histogram,
            "hit_rate_curve": {
                "capacities": self.curve_capacities,
                "hit_rates": self.curve_hit_rates,
            },
            "capacity": self.capacity,
            "lru_hits": self.lru_hits,
            "lru_misses": self.lru_misses,
            "belady_misses": self.belady_misses,
            "measured_lru_misses": self.measured_lru_misses,
            "policy": self.policy,
            "policy_hits": self.policy_hits,
            "policy_misses": self.policy_misses,
            "measured_misses": self.measured_misses,
            "gap": self.gap,
            "gap_fraction": self.gap_fraction,
        }

    def render(self) -> str:
        lines = [
            f"memtrace: {self.accesses} accesses ({self.reads} reads, "
            f"{self.writes} writes) over {self.distinct_chunks} chunks, "
            f"{self.barriers} barriers",
            f"  capacity {self.capacity} chunks:",
            f"    LRU misses (simulated)   {self.lru_misses:>8}",
        ]
        if self.measured_lru_misses is not None:
            lines.append(
                f"    LRU misses (measured)    {self.measured_lru_misses:>8}")
        if self.policy != "lru" and self.policy_misses is not None:
            lines.append(
                f"    {self.policy.upper()} misses (simulated)   "
                f"{self.policy_misses:>8}")
            if self.measured_misses is not None:
                lines.append(
                    f"    {self.policy.upper()} misses (measured)    "
                    f"{self.measured_misses:>8}")
        lines += [
            f"    Belady-optimal misses    {self.belady_misses:>8}  "
            f"(lower bound)",
            f"    gap (LRU - optimal)      {self.gap:>8}  "
            f"({self.gap_fraction:.1%} of LRU misses avoidable)",
            "  hit rate vs. capacity:",
        ]
        caps, rates = self.curve_capacities, self.curve_hit_rates
        step = max(1, len(caps) // 8)
        shown = list(range(0, len(caps), step))
        if shown and shown[-1] != len(caps) - 1:
            shown.append(len(caps) - 1)
        for i in shown:
            bar = "#" * int(round(rates[i] * 40))
            lines.append(f"    C={caps[i]:<5} {rates[i]:6.1%} {bar}")
        return "\n".join(lines)


def analyze_trace(
    trace: Sequence[Tuple[int, int, str]],
    capacity: int,
    measured_lru_misses: Optional[int] = None,
    policy: str = "lru",
    measured_misses: Optional[int] = None,
) -> MemTraceReport:
    """Run the full analysis suite over one recorded trace.

    ``policy`` selects the what-if replay (``lru``/``mru``/``belady``);
    the LRU and Belady baselines are always computed so the report's gap
    stays meaningful. ``measured_misses`` is the live miss count under
    that policy (``measured_lru_misses`` keeps its historical meaning and
    is filled from it when the policy is LRU).
    """
    reads = sum(1 for _s, _c, op in _accesses(trace) if op == "r")
    writes = sum(1 for _s, _c, op in _accesses(trace) if op == "w")
    barriers = sum(1 for _s, _c, op in _accesses(trace) if op == "b")
    chunks = {c for _s, c, op in _accesses(trace) if op != "b"}
    caps, rates = hit_rate_curve(trace)
    hits, misses = simulate_lru(trace, capacity)
    p_hits, p_misses = simulate_cache(trace, capacity, policy)
    if policy == "lru":
        if measured_misses is None:
            measured_misses = measured_lru_misses
        elif measured_lru_misses is None:
            measured_lru_misses = measured_misses
    return MemTraceReport(
        accesses=reads + writes,
        reads=reads,
        writes=writes,
        barriers=barriers,
        distinct_chunks=len(chunks),
        histogram=reuse_distance_histogram(trace),
        curve_capacities=caps,
        curve_hit_rates=rates,
        capacity=capacity,
        lru_hits=hits,
        lru_misses=misses,
        belady_misses=belady_misses(trace, capacity),
        measured_lru_misses=measured_lru_misses,
        policy=policy,
        policy_hits=p_hits,
        policy_misses=p_misses,
        measured_misses=measured_misses,
    )
