"""PlanCache: LRU behavior, counters, and MemQSim integration."""

from __future__ import annotations

import numpy as np

from repro.circuits import ghz, qft
from repro.core import MemQSim, MemQSimConfig
from repro.serve import PlanCache
from repro.telemetry import Telemetry


class TestPlanCacheUnit:
    def test_miss_then_hit(self):
        cache = PlanCache(capacity=4)
        assert cache.lookup("k") is None
        cache.store("k", "entry")
        assert cache.lookup("k") == "entry"
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = PlanCache(capacity=2)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.lookup("a")       # refresh a -> b is now LRU
        cache.store("c", 3)     # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats()["evictions"] == 1

    def test_telemetry_counters(self):
        tel = Telemetry()
        cache = PlanCache(capacity=4, telemetry=tel)
        cache.lookup("x")
        cache.store("x", 1)
        cache.lookup("x")
        assert tel.metrics.counter("serve.plan_cache.hit").value == 1
        assert tel.metrics.counter("serve.plan_cache.miss").value == 1


class TestMemQSimIntegration:
    def test_second_run_hits_and_matches(self):
        cache = PlanCache()
        cfg = MemQSimConfig(chunk_qubits=5)
        circuit = qft(8)
        r1 = MemQSim(cfg, plan_cache=cache).run(circuit)
        r2 = MemQSim(cfg, plan_cache=cache).run(circuit)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert r1.state_digest() == r2.state_digest()
        np.testing.assert_array_equal(r1.statevector(), r2.statevector())

    def test_cached_run_matches_uncached(self):
        cache = PlanCache()
        cfg = MemQSimConfig(chunk_qubits=5)
        plain = MemQSim(cfg).run(qft(8))
        MemQSim(cfg, plan_cache=cache).run(qft(8))
        cached = MemQSim(cfg, plan_cache=cache).run(qft(8))
        assert cached.state_digest() == plain.state_digest()

    def test_different_circuit_misses(self):
        cache = PlanCache()
        cfg = MemQSimConfig(chunk_qubits=5)
        MemQSim(cfg, plan_cache=cache).run(qft(8))
        MemQSim(cfg, plan_cache=cache).run(ghz(8))
        assert cache.stats()["misses"] == 2
        assert cache.stats()["hits"] == 0

    def test_plan_knob_change_misses(self):
        cache = PlanCache()
        cfg = MemQSimConfig(chunk_qubits=5)
        MemQSim(cfg, plan_cache=cache).run(qft(8))
        MemQSim(cfg.with_updates(fuse_gates=True), plan_cache=cache).run(qft(8))
        assert cache.stats()["misses"] == 2

    def test_execution_knob_change_hits(self):
        """Codec choice executes the same plan — key must not fragment."""
        cache = PlanCache()
        cfg = MemQSimConfig(chunk_qubits=5)
        MemQSim(cfg, plan_cache=cache).run(qft(8))
        MemQSim(cfg.with_updates(compressor="zlib", compressor_options={}),
                plan_cache=cache).run(qft(8))
        assert cache.stats()["hits"] == 1

    def test_resolved_chunk_size_in_key(self):
        """A checkpoint-style layout override must not reuse a mismatched
        plan: the resolved chunk_qubits is part of the key."""
        cache = PlanCache()
        r1 = MemQSim(MemQSimConfig(chunk_qubits=5), plan_cache=cache).run(qft(8))
        MemQSim(MemQSimConfig(chunk_qubits=4), plan_cache=cache).run(qft(8))
        assert cache.stats()["misses"] == 2
        assert len(cache) == 2
        assert r1.num_qubits == 8


class TestCachedPlanDrivesHierarchy:
    def test_cached_plan_still_feeds_belady_schedule(self):
        """A plan served from the cache must still drive Belady eviction:
        the hot run's live miss count equals the offline bound computed
        from its own trace, and the state matches the uncached run."""
        from repro.analysis.memtrace import belady_misses
        from repro.device import DeviceSpec
        from repro.memory import ChunkAccessRecorder

        cache = PlanCache()
        cfg = MemQSimConfig(
            chunk_qubits=4, cache_chunks=6, cache_policy="belady",
            device=DeviceSpec(memory_bytes=int(0.002 * (1 << 20))))
        circuit = qft(8)
        plain = MemQSim(cfg).run(circuit)
        MemQSim(cfg, plan_cache=cache).run(circuit)  # warm the plan cache
        tel = Telemetry()
        rec = ChunkAccessRecorder()
        tel.access = rec
        hot = MemQSim(cfg, plan_cache=cache, telemetry=tel).run(circuit)
        assert cache.stats()["hits"] == 1
        misses = hot.store.cache_stats.misses  # before digest streams chunks
        assert misses == belady_misses(rec.trace(), 6)
        assert hot.state_digest() == plain.state_digest()
