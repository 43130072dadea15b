"""The memory and codec-lane layers keep their own counts, and a run's
telemetry reads them when it is read (``Telemetry.watch``).

The pinned figures are what the registry read when the layers still
pushed every event into it as it happened; reading the layers' counts
must give the same numbers, name for name, for runs that reuse a
telemetry, runs from a checkpoint or a previous result's store, and
queries after a run.
"""

import pytest

from repro.circuits import get_workload
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec
from repro.telemetry import MetricsRegistry, Telemetry

#: a cache, a tiered store that spills and promotes, and many group passes
CFG = MemQSimConfig(chunk_qubits=4, device=DeviceSpec(memory_bytes=1024),
                    compressor="szlike", cache_chunks=4,
                    cache_policy="belady", host_store_mb=0.0005)

VQE = {"cache.eviction": 102, "cache.hit": 22, "cache.miss": 56,
       "cache.writeback": 66, "codec.entropy_choice.uniform": 1,
       "codec.entropy_choice.zlib": 67, "pool.acquire.count": 39,
       "tier.promote": 37, "tier.spill": 91}
#: vqe(8) then qft(8), one telemetry
BOTH = {"cache.eviction": 128, "cache.hit": 32, "cache.miss": 76,
        "cache.writeback": 91, "codec.entropy_choice.uniform": 27,
        "codec.entropy_choice.zlib": 68, "pool.acquire.count": 54,
        "tier.promote": 37, "tier.spill": 94}
#: vqe(8) from the state qft(8) left, by checkpoint / by its store
FROM_CHECKPOINT = {"cache.eviction": 160, "cache.hit": 24,
                   "cache.miss": 88, "cache.writeback": 92,
                   "codec.entropy_choice.zlib": 92, "pool.acquire.count": 56}
FROM_STORE = dict(FROM_CHECKPOINT, **{"tier.promote": 69, "tier.spill": 149})


def counts(tel):
    return {k: v for k, v in tel.metrics.snapshot()["counters"].items()
            if k.split(".")[0] in ("cache", "tier", "codec", "pool")}


def run(circuit, tel=None, **kw):
    return MemQSim(CFG, telemetry=tel).run(get_workload(circuit, 8), **kw)


class TestOneTelemetryTwoRuns:
    def test_the_counts_are_the_sum_of_both_runs(self):
        tel = Telemetry(bus=False)
        sim = MemQSim(CFG, telemetry=tel)
        first = sim.run(get_workload("vqe", 8))
        assert counts(tel) == VQE
        second = sim.run(get_workload("qft", 8))
        assert counts(tel) == BOTH
        # what the snapshot reads is what the layers counted
        caches = [r.store.cache_stats for r in (first, second)]
        tiers = [r.store.inner.tier_stats for r in (first, second)]
        assert BOTH["cache.hit"] == sum(c.hits for c in caches)
        assert BOTH["cache.miss"] == sum(c.misses for c in caches)
        assert BOTH["tier.spill"] == sum(t.spills for t in tiers)
        assert BOTH["tier.promote"] == sum(t.promotions for t in tiers)

    def test_each_run_alone_adds_up_to_both(self):
        a, b = Telemetry(bus=False), Telemetry(bus=False)
        run("vqe", a)
        run("qft", b)
        alone = counts(a)
        for name, value in counts(b).items():
            alone[name] = alone.get(name, 0) + value
        assert alone == BOTH


class TestRunsFromAGivenState:
    def test_checkpoint_and_store_runs_count_as_before(self, tmp_path):
        base = run("qft")
        path = tmp_path / "qft.ckpt"
        base.save_state(path)
        from_ckpt, from_store = Telemetry(bus=False), Telemetry(bus=False)
        run("vqe", from_ckpt, checkpoint=str(path))
        run("vqe", from_store, initial_store=base.store)
        assert counts(from_ckpt) == FROM_CHECKPOINT
        assert counts(from_store) == FROM_STORE

    def test_a_store_reused_under_one_telemetry_is_read_once(self):
        tel = Telemetry(bus=False)
        base = run("qft", tel)
        run("vqe", tel, initial_store=base.store)
        tiers = base.store.inner.tier_stats
        got = counts(tel)
        assert (got["tier.spill"], got["tier.promote"]) == \
            (tiers.spills, tiers.promotions)

    def test_a_store_reused_under_another_telemetry_moves_to_it(self):
        first, second = Telemetry(bus=False), Telemetry(bus=False)
        base = run("qft", first)
        before = counts(first)
        run("vqe", second, initial_store=base.store)
        assert counts(first) == before
        assert counts(second) == FROM_STORE


class TestQueriesAfterARun:
    def test_queries_move_the_counters_as_before(self):
        tel = Telemetry(bus=False)
        res = run("vqe", tel)
        assert counts(tel) == VQE
        res.amplitude(3)
        assert counts(tel) == dict(VQE, **{"cache.miss": 57})
        res.sample(5, seed=0)
        after = dict(VQE, **{"cache.eviction": 116, "cache.hit": 24,
                             "cache.miss": 74})
        assert counts(tel) == after
        res.statevector()  # flushes a clean cache, loads past it
        assert counts(tel) == after
        assert after["cache.miss"] == res.store.cache_stats.misses


class TestWatch:
    def test_counters_count_from_the_watch_and_a_source_once(self):
        class Source:
            n = 5

        src = Source()
        m = MetricsRegistry()
        read = lambda s: ({"x": s.n}, {"g": (s.n, 2 * s.n)})  # noqa: E731
        m.watch(src, read)
        m.watch(src, read)
        assert "x" not in m.snapshot()["counters"]  # nothing counted yet
        src.n = 8
        assert m.counter("x").value == 3
        assert m.snapshot()["gauges"]["g"] == {"value": 8, "max": 16}

    def test_gauges_read_the_tracker_balance_and_peak(self):
        tel = Telemetry(bus=False)
        res = run("qft", tel)
        gauges = tel.metrics.snapshot()["gauges"]
        for cat in res.tracker.categories():
            assert gauges[f"mem.{cat}.bytes"] == pytest.approx({
                "value": res.tracker.current(cat),
                "max": res.tracker.peak(cat)})
