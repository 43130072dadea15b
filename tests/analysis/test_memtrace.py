"""Tests for the access-trace analysis: reuse distance, LRU, Belady."""

import itertools

import pytest

from repro.analysis.memtrace import (
    analyze_trace,
    belady_misses,
    hit_rate_curve,
    reuse_distance_histogram,
    reuse_distances,
    simulate_cache,
    simulate_lru,
)
from repro.circuits import get_workload
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec
from repro.telemetry import Telemetry
from repro.memory import ChunkAccessRecorder


def R(chunk, stage=0):
    return (stage, chunk, "r")


def W(chunk, stage=0):
    return (stage, chunk, "w")


BARRIER = (1, -1, "b")


class TestReuseDistances:
    def test_cold_then_reuse(self):
        trace = [R(0), R(1), R(0)]
        # 0 cold, 1 cold, 0 reused with one distinct other chunk between
        assert reuse_distances(trace) == [None, None, 1]

    def test_immediate_reuse_is_zero(self):
        assert reuse_distances([R(5), R(5)]) == [None, 0]

    def test_duplicates_between_count_once(self):
        trace = [R(0), R(1), R(1), R(1), R(0)]
        assert reuse_distances(trace) == [None, None, 0, 0, 1]

    def test_barrier_resets_history(self):
        trace = [R(0), BARRIER, R(0)]
        assert reuse_distances(trace) == [None, None]

    def test_writes_participate_in_stack(self):
        trace = [W(0), R(0)]
        assert reuse_distances(trace) == [None, 0]

    def test_bad_op_raises(self):
        with pytest.raises(ValueError):
            reuse_distances([(0, 0, "x")])

    def test_histogram(self):
        trace = [R(0), R(1), R(0), R(1)]
        assert reuse_distance_histogram(trace) == {"cold": 2, "1": 2}


class TestHitRateCurve:
    def test_hand_trace(self):
        # distances of reads: None, None, 1, 1
        trace = [R(0), R(1), R(0), R(1)]
        caps, rates = hit_rate_curve(trace)
        assert caps == [1, 2]
        # C=1: only d==0 hits -> 0/4. C=2: d<=1 hits -> 2/4.
        assert rates == [0.0, 0.5]

    def test_curve_is_monotone_and_matches_simulation(self):
        # pseudo-random but deterministic trace over 6 chunks
        seq = [0, 1, 2, 3, 0, 1, 4, 5, 2, 0, 3, 1, 5, 4, 0, 2]
        trace = [R(c) for c in seq]
        caps, rates = hit_rate_curve(trace)
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        reads = len(seq)
        for cap, rate in zip(caps, rates):
            hits, misses = simulate_lru(trace, cap)
            assert hits + misses == reads
            assert rate == pytest.approx(hits / reads)

    def test_empty_trace(self):
        caps, rates = hit_rate_curve([])
        assert caps == [1]
        assert rates == [0.0]


class TestSimulateLru:
    def test_capacity_one(self):
        trace = [R(0), R(0), R(1), R(0)]
        assert simulate_lru(trace, 1) == (1, 3)

    def test_writes_insert_but_do_not_count(self):
        # write makes chunk 0 resident; the read then hits, and the
        # (hits + misses) tally only ever covers reads
        trace = [W(0), R(0)]
        assert simulate_lru(trace, 2) == (1, 0)

    def test_barrier_flushes(self):
        trace = [R(0), BARRIER, R(0)]
        assert simulate_lru(trace, 4) == (0, 2)

    def test_lru_eviction_order(self):
        # with C=2: 0,1 resident; touching 0 makes 1 the LRU victim for 2
        trace = [R(0), R(1), R(0), R(2), R(0)]
        hits, misses = simulate_lru(trace, 2)
        assert (hits, misses) == (2, 3)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            simulate_lru([], 0)


class TestBelady:
    def test_belady_beats_lru_on_classic_pattern(self):
        # cyclic scan of 3 chunks with capacity 2: LRU misses everything,
        # MIN keeps one chunk pinned
        trace = [R(c) for c in [0, 1, 2] * 4]
        _h, lru = simulate_lru(trace, 2)
        opt = belady_misses(trace, 2)
        assert lru == 12
        assert opt < lru

    def test_belady_never_exceeds_lru(self):
        seqs = itertools.product(range(4), repeat=6)
        for i, seq in enumerate(seqs):
            if i % 7:  # keep runtime modest but coverage broad
                continue
            trace = [R(c) for c in seq]
            for cap in (1, 2, 3):
                _h, lru = simulate_lru(trace, cap)
                assert belady_misses(trace, cap) <= lru

    def test_barrier_bounds_lookahead(self):
        # Next use of chunk 0 is across the barrier; Belady must not use
        # it to justify keeping 0 resident (and must still flush).
        trace = [R(0), R(1), R(2), BARRIER, R(0)]
        assert belady_misses(trace, 2) == 4

    def test_writes_make_resident_without_counting(self):
        trace = [W(0), R(0), R(1), R(0)]
        assert belady_misses(trace, 2) == 1  # only chunk 1's read misses

    def test_a_copy_rewritten_before_its_next_read_is_dead(self):
        # A group sweep: every pass reads its members, then writes them.
        # Ranking a just-read chunk by that write kept it resident for
        # nothing, and MRU — which drops exactly that chunk — took fewer
        # misses than "optimal" at capacities below two groups.
        passes = [(0, 1), (2, 3), (4, 5), (6, 7)]
        trace = []
        for _sweep in range(3):
            for members in passes:
                trace += [R(c) for c in members] + [W(c) for c in members]
        for cap in (2, 3, 4, 6):
            bound = belady_misses(trace, cap)
            for policy in ("mru", "lru"):
                assert bound <= simulate_cache(trace, cap, policy)[1], \
                    (cap, policy)


class TestAnalyzeTrace:
    def test_report_fields(self):
        trace = [R(0), W(0), R(1), BARRIER, R(0)]
        rep = analyze_trace(trace, capacity=2)
        assert rep.accesses == 4
        assert rep.reads == 3
        assert rep.writes == 1
        assert rep.barriers == 1
        assert rep.distinct_chunks == 2
        assert rep.lru_hits + rep.lru_misses == rep.reads
        assert rep.belady_misses <= rep.lru_misses
        doc = rep.to_dict()
        assert doc["gap"] == rep.lru_misses - rep.belady_misses
        assert "hit_rate_curve" in doc
        assert "C=" in rep.render()

    def test_measured_misses_drive_the_gap(self):
        trace = [R(0), R(1), R(0)]
        rep = analyze_trace(trace, capacity=1, measured_lru_misses=5)
        assert rep.gap == 5 - rep.belady_misses


class TestAgainstLiveCache:
    def test_simulated_lru_matches_live_cache(self):
        """The offline LRU replay must equal the live cache's miss count."""
        tel = Telemetry()
        tel.access = ChunkAccessRecorder()
        cfg = MemQSimConfig(
            chunk_qubits=3,
            compressor="zlib",
            cache_chunks=4,
            cache_policy="lru",
            device=DeviceSpec(memory_bytes=int(0.002 * (1 << 20))),
        )
        res = MemQSim(cfg, telemetry=tel).run(get_workload("qft", 8))
        stats = getattr(res.store, "cache_stats", None)
        assert stats is not None
        trace = tel.access.trace()
        assert len(trace) > 0
        hits, misses = simulate_lru(trace, 4)
        assert misses == stats.misses
        assert hits == stats.hits
        assert belady_misses(trace, 4) <= misses


class TestSimulateCache:
    def test_lru_shorthand_equivalence(self):
        trace = [R(k % 5) for k in range(20)] + [W(2), R(7), R(2)]
        assert simulate_cache(trace, 3, "lru") == simulate_lru(trace, 3)

    def test_mru_evicts_most_recent(self):
        # fill 0,1 then touch 2: MRU evicts 1 (most recent), keeps 0
        trace = [R(0), R(1), R(2), R(0), R(1)]
        hits, misses = simulate_cache(trace, 2, "mru")
        assert (hits, misses) == (1, 4)
        # LRU on the same trace keeps 1,2 -> 0 misses again
        assert simulate_cache(trace, 2, "lru") == (0, 5)

    def test_mru_beats_lru_on_cyclic_sweep(self):
        cycle = [R(k) for k in range(4)]
        trace = cycle * 6
        _, lru_m = simulate_cache(trace, 3, "lru")
        _, mru_m = simulate_cache(trace, 3, "mru")
        assert mru_m < lru_m

    def test_belady_policy_is_the_bound(self):
        trace = [R(k % 7) for k in range(50)] + [W(1), R(1), R(6)]
        hits, misses = simulate_cache(trace, 3, "belady")
        assert misses == belady_misses(trace, 3)
        reads = sum(1 for _s, _c, op in trace if op == "r")
        assert hits == reads - misses

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            simulate_cache([R(0)], 2, "fifo")
        with pytest.raises(ValueError):
            simulate_cache([R(0)], 0, "lru")


class TestAnalyzePolicy:
    def test_policy_fields_default_lru(self):
        trace = [R(0), R(1), R(0), W(2), R(2)]
        rep = analyze_trace(trace, 2, measured_lru_misses=3)
        assert rep.policy == "lru"
        assert rep.policy_misses == rep.lru_misses
        assert rep.measured_misses == 3
        d = rep.to_dict()
        assert d["measured_lru_misses"] == 3  # legacy key intact

    def test_policy_mru_keeps_lru_baseline(self):
        trace = ([R(k) for k in range(4)] * 5)
        rep = analyze_trace(trace, 3, policy="mru", measured_misses=None)
        assert rep.policy == "mru"
        assert rep.policy_misses == simulate_cache(trace, 3, "mru")[1]
        assert rep.lru_misses == simulate_lru(trace, 3)[1]
        assert rep.belady_misses <= rep.policy_misses

    def test_measured_misses_backfills_legacy_field(self):
        trace = [R(0), R(1), R(0)]
        rep = analyze_trace(trace, 2, policy="lru", measured_misses=2)
        assert rep.measured_lru_misses == 2

    def test_render_mentions_policy(self):
        trace = ([R(k) for k in range(4)] * 3)
        rep = analyze_trace(trace, 2, policy="mru", measured_misses=None)
        assert "MRU" in rep.render()
