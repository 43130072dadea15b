"""Unit tests for the plan-driven memory hierarchy.

Covers the :class:`AccessSchedule` cursor/next-use semantics, the
:class:`TieredChunkStore` RAM/disk split (spill, promote, budget,
permute, compaction), and the :class:`MemoryHierarchy` facade — plus the
end-to-end contract that the live Belady cache takes exactly the misses
the offline Belady bound computes.
"""

import numpy as np
import pytest

from repro.compression import get_compressor
from repro.memory import (
    AccessSchedule,
    ChunkCache,
    ChunkLayout,
    CompressedChunkStore,
    MemoryHierarchy,
    MemoryTracker,
    TieredChunkStore,
)


def rand_chunk(c, seed):
    g = np.random.default_rng(seed)
    v = g.standard_normal(1 << c) + 1j * g.standard_normal(1 << c)
    return (v / np.linalg.norm(v)).astype(np.complex128)


# ---------------------------------------------------------------------------
# AccessSchedule


def count_jobs(pool):
    """Count the jobs ``pool`` is handed from here on, by kind."""
    jobs = {"compress": 0, "decompress": 0}

    def counting(kind):
        submit = getattr(pool, f"submit_{kind}")

        def counted(*args):
            jobs[kind] += 1
            return submit(*args)
        return counted

    for kind in jobs:
        setattr(pool, f"submit_{kind}", counting(kind))
    return jobs


def sched(passes):
    return AccessSchedule(passes)


class TestAccessSchedule:
    PASSES = [
        ("pass", 0, 0, (0, 1)),
        ("pass", 0, 1, (2, 3)),
        ("barrier", 1, -1, ()),
        ("pass", 2, 0, (0, 2)),
    ]

    def test_sequence_layout(self):
        s = sched(self.PASSES)
        # 2 passes x (2 reads + 2 writes) + 1 barrier + 1 pass x 4
        assert len(s) == 13

    def test_observe_matches_in_order(self):
        s = sched(self.PASSES)
        s.begin_pass(0, 0)
        nu = s.observe(0, "r")
        # chunk 0's next access is its own write at position 2
        assert nu == 2.0
        assert s.observe(1, "r") == 3.0
        # writes: chunk 0 not reused before the barrier -> inf
        assert s.observe(0, "w") == float("inf")
        assert s.matched == 3

    def test_observe_off_schedule_returns_none_keeps_cursor(self):
        s = sched(self.PASSES)
        s.begin_pass(0, 0)
        cur = s.cursor
        assert s.observe(7, "r") is None
        assert s.cursor == cur
        assert s.off_schedule == 1
        # replay continues unharmed
        assert s.observe(0, "r") == 2.0

    def test_barrier_bounds_next_use(self):
        s = sched(self.PASSES)
        s.begin_pass(0, 1)
        # the read's next use is this pass's own write...
        assert s.observe(2, "r") == 6.0
        assert s.observe(3, "r") == 7.0
        # ...but the write's reuse (stage 2) sits past the barrier: never
        assert s.observe(2, "w") == float("inf")

    def test_begin_pass_reseeks_cursor(self):
        s = sched(self.PASSES)
        s.begin_pass(2, 0)
        assert s.observe(0, "r") is not None

    def test_barrier_advances_past(self):
        s = sched(self.PASSES)
        s.barrier(1)
        assert s.observe(0, "r") is not None
        assert s.remaining() == 3

    def test_next_use_of_is_barrier_bounded(self):
        s = sched(self.PASSES)
        s.begin_pass(0, 0)
        assert s.next_use_of(0) == 0.0
        # chunk 3's first use is in pass (0,1), before the barrier
        assert s.next_use_of(3) == 5.0
        # past pass (0,1), chunk 3's only remaining use... there is none
        s.begin_pass(2, 0)
        assert s.next_use_of(3) == float("inf")
        # and chunk 2's stage-2 use is visible once the cursor crossed
        assert s.next_use_of(2) == 10.0

    def test_reads_after_stops_at_a_barrier_and_crosses_a_stage(self):
        s = sched(self.PASSES + [("pass", 3, 1, (1, 3))])
        assert s.reads_after() == ()            # no pass begun yet
        s.begin_pass(0, 0)
        assert s.pass_id == (0, 0)
        assert s.reads_after() == (2, 3)
        s.observe(0, "r")                       # cursor moves, answer not
        assert s.reads_after() == (2, 3)
        s.begin_pass(0, 1)
        assert s.reads_after() == ()            # barrier next
        s.begin_pass(2, 0)
        assert s.reads_after() == (1, 3)        # stage 3, nothing between
        s.begin_pass(3, 1)
        assert s.reads_after() == ()            # end of plan
        s.begin_pass(9, 9)
        assert s.reads_after() == ()            # off-plan pass

    def test_coldest_is_the_first_farthest_next_use(self):
        # the spill pick in one call; the reference is the per-chunk
        # next_use_of scan it replaced
        def reference(s, chunks):
            victim, victim_nu = None, -1.0
            for chunk in chunks:
                nu = s.next_use_of(chunk, s.horizon())
                if victim is None or nu > victim_nu:
                    victim, victim_nu = chunk, nu
                    if nu == float("inf"):
                        break
            return victim

        s = sched(self.PASSES + [("pass", 3, 1, (1, 3))])
        orders = [(0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3), (1, 99, 0), ()]
        for cursor in range(len(s) + 1):
            s.cursor = cursor
            for chunks in orders:
                assert s.coldest(chunks) == reference(s, chunks), \
                    (cursor, chunks)

    def test_next_use_unknown_chunk(self):
        s = sched(self.PASSES)
        assert s.next_use_of(99) == float("inf")

    def test_horizon_is_the_next_barrier_and_can_be_passed_in(self):
        # the spill pick looks the barrier up once for all resident chunks
        s = sched(self.PASSES)
        seen = []
        for cursor in range(len(s) + 1):
            s.cursor = cursor
            seen.append(s.horizon())
            for chunk in (0, 1, 2, 3, 99):
                assert s.next_use_of(chunk, s.horizon()) == s.next_use_of(chunk)
        barrier = seen[0]
        assert barrier == 8.0  # two two-member passes come first
        assert seen == [barrier] * 9 + [float("inf")] * (len(s) - 8)


# ---------------------------------------------------------------------------
# TieredChunkStore


AMPLE = 1 << 30  # a RAM budget no test state comes near


@pytest.fixture
def tiered(tmp_path):
    lay = ChunkLayout(7, 3)  # 16 chunks of 8 amps
    s = TieredChunkStore(lay, get_compressor("zlib"), tmp_path / "tier.log",
                         host_budget_bytes=AMPLE, tracker=MemoryTracker())
    yield s
    s.close()


def fill(store, seeds=range(16)):
    for k, seed in zip(range(store.layout.num_chunks), seeds):
        store.store(k, rand_chunk(3, seed + 1))


class TestTieredStore:
    def test_unbounded_budget_never_spills(self, tiered):
        fill(tiered)
        assert tiered.tier_stats.spills == 0
        assert tiered.disk_blob_bytes() == 0

    def test_budget_forces_spill_and_bytes_survive(self, tiered):
        fill(tiered)
        sizes = [len(tiered.get_blob(k)) for k in range(16)]
        tiered.host_budget_bytes = sum(sizes) // 2
        tiered._enforce_budget()
        assert tiered.tier_stats.spills > 0
        assert tiered.host_blob_bytes() <= tiered.host_budget_bytes
        assert tiered.disk_blob_bytes() > 0
        # spill/promote round trip is byte-identical
        for k in range(16):
            assert len(tiered.get_blob(k)) == sizes[k]

    def test_spilled_blob_roundtrip_identity(self, tiered):
        data = rand_chunk(3, 42)
        tiered.store(5, data)
        blob_before = tiered.get_blob(5)
        tiered.host_budget_bytes = 1  # everything must spill
        tiered._enforce_budget()
        assert tiered.is_on_disk(5)
        assert tiered.get_blob(5) == blob_before
        np.testing.assert_array_equal(tiered.load(5), data)
        # promote it back: bytes still identical
        tiered.host_budget_bytes = AMPLE
        tiered.will_need([5])
        assert not tiered.is_on_disk(5)
        assert tiered.get_blob(5) == blob_before
        assert tiered.tier_stats.promotions == 1

    def test_will_need_skips_a_blob_the_budget_cannot_hold(self, tiered):
        """Promoting it would only re-append it to the log."""
        tiered.store(5, rand_chunk(3, 42))
        tiered.store(6, rand_chunk(3, 43))
        tiered.host_budget_bytes = min(len(tiered.get_blob(5)),
                                       len(tiered.get_blob(6))) - 1
        tiered._enforce_budget()
        written = tiered.file_bytes
        tiered.will_need([5, 6])
        assert tiered.is_on_disk(5) and tiered.is_on_disk(6)
        assert tiered.tier_stats.promotions == 0
        assert tiered.file_bytes == written

    def test_zero_blob_pinned_in_ram(self, tiered):
        tiered.init_zero_state()
        tiered.host_budget_bytes = 1
        tiered._enforce_budget()
        # chunk 0 (amplitude 1) holds the only unique blob and may spill;
        # the interned zero blob shared by chunks 1..15 never does
        assert tiered.tier_stats.spills <= 1
        for k in range(1, 16):
            assert not tiered.is_on_disk(k)
        sv = tiered.to_statevector()
        assert sv[0] == 1.0 and np.count_nonzero(sv) == 1

    def test_overwrite_drops_disk_record(self, tiered):
        tiered.store(3, rand_chunk(3, 1))
        tiered.host_budget_bytes = 1
        tiered._enforce_budget()
        assert tiered.is_on_disk(3)
        live_before = tiered.disk_blob_bytes()
        tiered.host_budget_bytes = AMPLE
        tiered.store(3, rand_chunk(3, 2))
        assert not tiered.is_on_disk(3)
        assert tiered.disk_blob_bytes() < live_before

    def test_permute_relabels_both_tiers(self, tiered):
        fill(tiered)
        tiered.host_budget_bytes = tiered.host_blob_bytes() // 2
        tiered._enforce_budget()
        blobs = {k: tiered.get_blob(k) for k in range(16)}
        n = 16
        perm = [(k + 3) % n for k in range(n)]  # dst <- src=perm[dst]
        tiered.permute(perm)
        for dst in range(n):
            assert tiered.get_blob(dst) == blobs[perm[dst]]
        # statevector round-trips through the permuted mixed tiers
        sv = tiered.to_statevector()
        assert sv.shape[0] == 1 << 7

    def test_schedule_aware_spill_prefers_plan_coldest(self, tiered):
        fill(tiered, seeds=range(16))
        # schedule: chunks 0..3 are needed next, 12..15 never
        passes = [("pass", 0, 0, (0, 1, 2, 3))]
        s = AccessSchedule(passes)
        tiered.schedule = s
        tiered.host_budget_bytes = tiered.host_blob_bytes() - 1
        tiered._enforce_budget()
        assert tiered.tier_stats.spills >= 1
        # imminently-needed chunks stayed in RAM
        for k in (0, 1, 2, 3):
            assert not tiered.is_on_disk(k)

    def test_compaction_reclaims_garbage(self, tiered, tmp_path):
        fill(tiered)
        tiered.host_budget_bytes = 1
        tiered._enforce_budget()
        # promote everything back -> the log is 100% garbage
        tiered.host_budget_bytes = AMPLE
        tiered.will_need(range(16))
        assert tiered.disk_blob_bytes() == 0
        tiered.compact()
        assert tiered.file_bytes == 0

    def test_compact_preserves_live_records(self, tiered):
        fill(tiered)
        tiered.host_budget_bytes = tiered.host_blob_bytes() // 3
        tiered._enforce_budget()
        blobs = {k: tiered.get_blob(k) for k in range(16)}
        # churn: rewrite half the RAM chunks to create log garbage
        for k in range(16):
            if not tiered.is_on_disk(k):
                tiered.store(k, rand_chunk(3, 100 + k))
                blobs[k] = tiered.get_blob(k)
        tiered.compact()
        for k in range(16):
            assert tiered.get_blob(k) == blobs[k], k

    def test_tracker_attribution(self, tmp_path):
        tracker = MemoryTracker()
        lay = ChunkLayout(7, 3)
        s = TieredChunkStore(lay, get_compressor("zlib"),
                             tmp_path / "t.log", AMPLE, tracker=tracker)
        fill(s)
        assert tracker.current("chunk_store") == s.host_blob_bytes()
        s.host_budget_bytes = s.host_blob_bytes() // 2
        s._enforce_budget()
        assert tracker.current("chunk_store") == s.host_blob_bytes()
        assert tracker.current("disk_store") == s.file_bytes
        s.close()


# ---------------------------------------------------------------------------
# MemoryHierarchy facade


class TestMemoryHierarchy:
    def test_build_without_cache(self):
        lay = ChunkLayout(6, 3)
        store = CompressedChunkStore(lay, get_compressor("zlib"),
                                    MemoryTracker())
        h = MemoryHierarchy.build(store)
        assert h.store_like is store
        assert not h.needs_schedule()
        assert h.attach_plan([]) is None

    def test_build_with_belady_cache_needs_schedule(self):
        lay = ChunkLayout(6, 3)
        store = CompressedChunkStore(lay, get_compressor("zlib"),
                                    MemoryTracker())
        h = MemoryHierarchy.build(store, cache_chunks=2,
                                  cache_policy="belady")
        assert isinstance(h.store_like, ChunkCache)
        assert h.needs_schedule()

    def test_describe_lists_tiers(self, tmp_path):
        lay = ChunkLayout(6, 3)
        store = TieredChunkStore(lay, get_compressor("zlib"),
                                 tmp_path / "h.log", 1024,
                                 tracker=MemoryTracker())
        h = MemoryHierarchy.build(store, cache_chunks=2)
        d = h.describe()
        names = [t["tier"] for t in d["tiers"]]
        assert names == ["decompressed_cache", "host_blobs", "disk_blobs"]
        store.close()


# ---------------------------------------------------------------------------
# Live cache == offline replay (the PR's headline contract)


class TestLiveEqualsReplay:
    @pytest.fixture(scope="class")
    def streamed(self):
        from repro.circuits import vqe_ansatz
        from repro.core import MemQSim, MemQSimConfig
        from repro.device import DeviceSpec

        def run(policy, cap=8):
            cfg = MemQSimConfig(
                chunk_qubits=4, cache_chunks=cap, cache_policy=policy,
                device=DeviceSpec(memory_bytes=int(0.002 * (1 << 20))),
            )
            res = MemQSim(cfg).run(vqe_ansatz(10, layers=2))
            return res.store.cache_stats.misses, res.access_trace()

        return run

    def test_live_belady_hits_the_offline_bound_exactly(self, streamed):
        from repro.analysis.memtrace import belady_misses

        live, trace = streamed("belady")
        assert live == belady_misses(trace, 8)

    def test_live_mru_matches_simulated_mru(self, streamed):
        from repro.analysis.memtrace import simulate_cache

        live, trace = streamed("mru")
        assert live == simulate_cache(trace, 8, "mru")[1]

    def test_live_lru_matches_simulated_lru(self, streamed):
        from repro.analysis.memtrace import simulate_cache

        live, trace = streamed("lru")
        assert live == simulate_cache(trace, 8, "lru")[1]

    def test_belady_never_beaten(self, streamed):
        live_b, _ = streamed("belady")
        live_l, _ = streamed("lru")
        live_m, _ = streamed("mru")
        assert live_b <= live_l and live_b <= live_m


# ---------------------------------------------------------------------------
# Hints under a codec lane


class TestHintsStopAtTheCache:
    PASSES = [
        ("pass", 0, 0, (0, 1)),
        ("pass", 0, 1, (2, 3)),
        ("pass", 1, 0, (0, 2)),
    ]

    @pytest.fixture()
    def laned(self):
        from repro.parallel import CodecWorkerPool

        lay = ChunkLayout(5, 3)
        store = CompressedChunkStore(lay, get_compressor("zlib"),
                                     MemoryTracker())
        for k in range(lay.num_chunks):
            store.store(k, rand_chunk(3, k))
        cache = ChunkCache(store, 2, "lru")
        with CodecWorkerPool(store.compressor, workers=2) as pool:
            assert not MemoryHierarchy(store, cache).needs_schedule()
            store.attach_lane(pool)
            assert MemoryHierarchy(store, cache).needs_schedule()
            schedule = AccessSchedule(self.PASSES)
            store.schedule = schedule
            yield cache, store, pool, schedule
            store.detach_lane()

    def test_resident_chunks_get_no_job(self, laned):
        cache, store, pool, schedule = laned
        cache.load(2)                 # resident, and read by the next pass
        schedule.begin_pass(0, 0)
        cache.will_need((0, 1))
        # this pass's 0 and 1, the next pass's 3 — never the cached 2
        assert set(store._prefetched) == {0, 1, 3}
        cache.load(0)
        cache.load(1)
        assert set(store._prefetched) == {3}

    def test_a_chunk_this_pass_rewrites_is_started_once(self, laned):
        from repro.device import Stage, Timeline

        cache, store, pool, schedule = laned
        jobs, hops = count_jobs(pool), Timeline()
        store.report_hops_to(hops)
        schedule.begin_pass(0, 1)
        store.will_need((2, 3))
        # stage 1's first pass reads 0 and 2; 2's job is this pass's own
        assert set(store._prefetched) == {2, 3, 0}
        before = store.load(2).copy()
        store.store(2, before * 1j)   # takes nothing: the load took the job
        schedule.begin_pass(1, 0)
        store.will_need((0, 2))
        np.testing.assert_array_equal(store.load(2), before * 1j)
        store.load(0), store.load(3)
        assert jobs["decompress"] == hops.count(Stage.DECOMPRESS) == 4

    def test_dirty_eviction_beats_a_stale_prefetch(self, laned):
        cache, store, pool, schedule = laned
        schedule.begin_pass(0, 0)
        cache.will_need((0, 1))       # starts a job on chunk 3's old blob
        assert 3 in store._prefetched
        new = rand_chunk(3, 99)
        cache.store(3, new)           # off-plan write, dirty in the cache
        cache.load(0)
        cache.load(1)                 # capacity 2: evicts dirty 3 -> inner
        assert 3 not in store._prefetched
        np.testing.assert_array_equal(cache.load(3), new)


class TestLaneJobsEqualLoads:
    def test_belady_cache_two_workers(self):
        """Every inner load is one decompress job: nothing cached is
        prefetched, nothing prefetched is thrown away."""
        from repro.circuits import get_workload
        from repro.core import MemQSim, MemQSimConfig
        from repro.device import DeviceSpec
        from repro.device.timeline import Stage
        from repro.parallel import CodecWorkerPool

        cfg = MemQSimConfig(
            chunk_qubits=6, precision="c64", compressor="zlib",
            cache_chunks=16, cache_policy="belady", host_store_mb=16 / 1024,
            device=DeviceSpec(memory_bytes=4096))
        with CodecWorkerPool(cfg.make_compressor(), workers=2) as pool:
            jobs = count_jobs(pool)
            res = MemQSim(cfg, codec_pool=pool).run(get_workload("vqe", 12))
        assert res.store.cache_stats.hits > 0
        # jobs the lanes ran == codec hops the run booked, every one on a
        # lane: no job was started and thrown away, none ran inline
        for stage in (Stage.DECOMPRESS, Stage.COMPRESS):
            laned = [r for r in res.timeline.rows if r[0] == stage and r[6]]
            assert jobs[stage.value] == res.timeline.count(stage) \
                == len(laned) > 0


class TestALanedTierReadsTheLogOnce:
    """A lane's prefetch of the next pass reads a disk-resident blob; that
    pass's promotion installs those bytes instead of reading the record a
    second time."""

    @staticmethod
    def _reads_per_record(monkeypatch):
        """``BlobLog.read`` calls per live record. A record is a log offset,
        unique until a compaction moves every record (keys carry how many
        compactions came before); the compaction's own reads only move
        bytes and are not counted."""
        from collections import Counter

        from repro.memory.diskstore import BlobLog

        reads = Counter()
        log_state = {"compactions": 0, "moving": False}
        read, rewrite = BlobLog.read, BlobLog.rewrite

        def counting_read(log, rec):
            if not log_state["moving"]:
                reads[id(log), log_state["compactions"], rec] += 1
            return read(log, rec)

        def moving_rewrite(log, records):
            log_state["moving"] = True
            try:
                return rewrite(log, records)
            finally:
                log_state["moving"] = False
                log_state["compactions"] += 1

        monkeypatch.setattr(BlobLog, "read", counting_read)
        monkeypatch.setattr(BlobLog, "rewrite", moving_rewrite)
        return reads

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_live_record_is_read_twice(self, workers, monkeypatch):
        from repro.circuits import vqe_ansatz
        from repro.core import MemQSim, MemQSimConfig
        from repro.device import DeviceSpec

        # the shape of the e2e benchmark's hierarchy_spill workload, small
        cfg = MemQSimConfig(
            chunk_qubits=7, precision="c64", compressor="szlike",
            compressor_options={"error_bound": 1e-6}, cache_chunks=4,
            cache_policy="belady", host_store_mb=1 / 256, fuse_gates=True,
            device=DeviceSpec(memory_bytes=8 << 10), workers=workers)
        params = np.linspace(0.8, 2.3, 3 * 12 * 2)
        reads = self._reads_per_record(monkeypatch)
        res = MemQSim(cfg).run(vqe_ansatz(12, layers=3, params=params))
        assert res.store.inner.tier_stats.promotions > 0
        assert sum(reads.values()) > 0, "nothing was read from the log"
        assert {key: n for key, n in reads.items() if n > 1} == {}
