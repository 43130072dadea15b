"""PlanCache: LRU behavior, counters, and MemQSim integration."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core
from repro.circuits import ghz, qft, vqe_ansatz, w_state
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


    def test_serve_re_exports_the_core_class(self):
        assert PlanCache is repro.core.PlanCache


class TestSingleFlight:
    """A miss is planned once however many identical runs ask for it."""

    def test_two_identical_runs_plan_once(self, monkeypatch):
        import threading

        import repro.core.memqsim as facade

        calls, again = [], threading.Event()
        plan_circuit = facade.plan_circuit

        def counted(*args, **kwargs):
            calls.append(threading.current_thread().name)
            if len(calls) == 1:
                # Hold the miss open; a second plan_circuit call would end
                # the wait at once.
                again.wait(0.5)
            else:
                again.set()
            return plan_circuit(*args, **kwargs)

        monkeypatch.setattr(facade, "plan_circuit", counted)
        cache = PlanCache()
        cfg = MemQSimConfig(chunk_qubits=4, compressor="zlib")
        results = {}

        def run(name):
            results[name] = MemQSim(cfg, plan_cache=cache).run(qft(8))

        threads = [threading.Thread(target=run, args=(name,), name=name)
                   for name in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
        assert len(calls) == 1
        assert sorted(r.config_echo["plan_cache"]
                      for r in results.values()) == ["hit", "miss"]
        assert (cache.stats()["misses"], cache.stats()["hits"]) == (1, 1)
        assert results["a"].state_digest() == results["b"].state_digest()

    def test_a_holder_that_raises_hands_the_miss_on(self):
        import threading
        import time

        cache = PlanCache()
        seen = []

        def waiter():
            with cache.claim("k") as entry:
                seen.append(entry)
                cache.store("k", "planned by the waiter")

        with pytest.raises(RuntimeError):
            with cache.claim("k") as entry:
                assert entry is None
                other = threading.Thread(target=waiter)
                other.start()
                time.sleep(0.2)  # the waiter blocks on the held key
                assert not seen
                raise RuntimeError("planning failed")
        other.join(10)
        assert not other.is_alive()
        assert seen == [None]
        assert cache.lookup("k") == "planned by the waiter"
        assert cache.stats()["misses"] == 2

    def test_many_threads_many_keys_one_fill_each(self):
        import sys
        import threading

        cache, fills = PlanCache(), []
        keys = ["a", "b", "c"]

        def worker(i):
            for k in keys[i % 3:] + keys[:i % 3]:
                with cache.claim(k) as entry:
                    if entry is None:
                        fills.append(k)
                        cache.store(k, k.upper())
                    else:
                        assert entry == k.upper()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(fills) == keys
        assert (cache.stats()["misses"], cache.stats()["hits"]) == (3, 21)

    def test_lookup_never_holds_a_key(self):
        cache = PlanCache()
        assert cache.lookup("k") is None
        with cache.claim("k") as entry:  # would wait forever if it did
            assert entry is None
            cache.store("k", 1)
        with cache.claim("k") as entry:
            assert entry == 1


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
        cfg = MemQSimConfig(chunk_qubits=5, fuse_gates=False)
        MemQSim(cfg, plan_cache=cache).run(qft(8))
        MemQSim(cfg.with_updates(fuse_gates=True), plan_cache=cache).run(qft(8))
        assert cache.stats()["misses"] == 2

    def test_execution_knob_change_hits(self):
        """Codec choice executes the same plan — key must not fragment."""
        cache = PlanCache()
        cfg = MemQSimConfig(chunk_qubits=5, fuse_gates=False)
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


class TestDerivedFusionInTheSharedCache:
    """The daemon's one ``PlanCache`` is keyed on what ``fuse_gates``
    resolves to: a lossy tenant's fused plan and a lossless tenant's
    unfused plan of the same circuit are two entries."""

    def test_fusion_alias_accepts_null_and_tenants_never_alias(self):
        from repro.serve.jobs import Job, config_from_payload

        base = MemQSimConfig(chunk_qubits=5, fuse_gates=True)
        unset = config_from_payload(base, {"config": {"fusion": None}})
        assert unset.fuse_gates is None
        lossless = config_from_payload(
            base, {"config": {"fuse_gates": None, "compressor": "zlib"}})
        on = config_from_payload(unset, {"config": {"fusion": True}})
        assert on.fuse_gates is True
        keys = {name: Job(qft(8), cfg).plan_key for name, cfg in
                [("lossy", unset), ("lossless", lossless), ("on", on)]}
        assert keys["lossy"] == keys["on"] != keys["lossless"]
        assert keys["lossless"] == lossless.with_updates(
            fuse_gates=False).plan_key()

        cache = PlanCache()
        echoes = [MemQSim(cfg, plan_cache=cache).run(qft(8)).config_echo
                  for cfg in (unset, lossless, on, lossless)]
        assert [e["plan_cache"] for e in echoes] == \
            ["miss", "miss", "hit", "hit"]
        assert [e["fuse_gates"] for e in echoes] == [True, False, True, False]
        assert len(cache) == 2


class TestRebind:
    """Same shape, other parameter values: the third lookup outcome."""

    def test_shared_cache_counts_hit_rebind_miss(self):
        tel = Telemetry()
        cache = PlanCache(telemetry=tel)
        cfg = MemQSimConfig(chunk_qubits=4, compressor="zlib",
                            fuse_gates=True)
        echo = [MemQSim(cfg, plan_cache=cache).run(
                    vqe_ansatz(6, seed=seed)).config_echo["plan_cache"]
                for seed in (1, 2, 2, 1)]
        assert echo == ["miss", "rebound", "hit", "rebound"]
        stats = cache.stats()
        assert (stats["misses"], stats["rebinds"], stats["hits"]) == (1, 2, 1)
        assert stats["size"] == 1  # one shape, one entry: the last binding
        for name, count in (("miss", 1), ("rebind", 2), ("hit", 1)):
            assert tel.metrics.counter(
                f"serve.plan_cache.{name}").value == count

    def test_every_simulator_has_a_private_cache(self):
        cfg = MemQSimConfig(chunk_qubits=5)
        one, other = MemQSim(cfg), MemQSim(cfg)
        assert one.plan_cache is not other.plan_cache
        assert one.run(qft(8)).config_echo["plan_cache"] == "miss"
        assert one.run(qft(8)).config_echo["plan_cache"] == "hit"
        assert other.run(qft(8)).config_echo["plan_cache"] == "miss"

    def test_lru_eviction_at_capacity(self):
        cache = PlanCache(capacity=2)
        sim = MemQSim(MemQSimConfig(chunk_qubits=4), plan_cache=cache)
        for circuit in (qft(6), ghz(6), qft(6), w_state(6)):  # evicts ghz
            sim.run(circuit)
        assert cache.stats()["evictions"] == 1 and len(cache) == 2
        assert sim.run(qft(6)).config_echo["plan_cache"] == "hit"
        assert sim.run(ghz(6)).config_echo["plan_cache"] == "miss"


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
