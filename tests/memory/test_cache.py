"""Unit tests for the decompressed-chunk cache."""

import numpy as np
import pytest

from repro.compression import get_compressor
from repro.device import Stage, Timeline
from repro.memory import ChunkCache, ChunkLayout, CompressedChunkStore, MemoryTracker


def rig(n=6, c=3, capacity=4, policy="mru"):
    tracker = MemoryTracker()
    lay = ChunkLayout(n, c)
    store = CompressedChunkStore(lay, get_compressor("zlib"), tracker)
    store.init_zero_state()
    return ChunkCache(store, capacity, policy, tracker), store, tracker


def booked(store):
    """Book the store's codec calls from here on; returns the timeline."""
    timeline = Timeline()
    store.report_hops_to(timeline)
    return timeline


class TestBasics:
    def test_validation(self):
        _, store, tracker = rig()
        with pytest.raises(ValueError):
            ChunkCache(store, 0)
        with pytest.raises(ValueError):
            ChunkCache(store, 4, policy="fifo")

    def test_load_hit_skips_inner(self):
        cache, store, _ = rig()
        cache.load(0)
        hops = booked(store)
        cache.load(0)
        assert hops.count(Stage.DECOMPRESS) == 0
        assert cache.cache_stats.hits == 1

    def test_load_returns_copy(self):
        cache, _, _ = rig()
        a = cache.load(0)
        a[:] = 99.0
        b = cache.load(0)
        assert not np.any(b == 99.0)

    def test_load_into_out_buffer(self):
        cache, _, _ = rig()
        buf = np.empty(8, dtype=np.complex128)
        out = cache.load(1, out=buf)
        assert out is buf

    def test_delegation(self):
        cache, store, _ = rig()
        assert cache.layout is store.layout
        assert cache.compressor is store.compressor


class TestWriteBack:
    def test_store_is_deferred(self):
        cache, store, _ = rig()
        data = np.full(8, 0.25, dtype=np.complex128)
        hops = booked(store)
        cache.store(0, data)
        assert hops.count(Stage.COMPRESS) == 0  # not yet compressed
        cache.flush()
        assert hops.count(Stage.COMPRESS) == 1
        assert np.array_equal(store.load(0), data)

    def test_repeated_stores_one_writeback(self):
        cache, store, _ = rig()
        hops = booked(store)
        for i in range(5):
            cache.store(0, np.full(8, float(i), dtype=np.complex128))
        cache.flush()
        assert hops.count(Stage.COMPRESS) == 1

    def test_eviction_writes_back_dirty(self):
        cache, store, _ = rig(capacity=2)
        cache.store(0, np.full(8, 1.0, dtype=np.complex128))
        cache.store(1, np.full(8, 2.0, dtype=np.complex128))
        cache.store(2, np.full(8, 3.0, dtype=np.complex128))  # evicts one
        assert cache.cache_stats.evictions == 1
        assert cache.cache_stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache, store, _ = rig(capacity=2)
        cache.load(0)
        cache.load(1)
        cache.load(2)
        assert cache.cache_stats.evictions == 1
        assert cache.cache_stats.writebacks == 0

    def test_store_size_checked(self):
        cache, _, _ = rig()
        with pytest.raises(ValueError):
            cache.store(0, np.zeros(4, dtype=np.complex128))

    def test_dirty_chunk_over_the_zero_blob_is_not_a_zero_chunk(self, tmp_path):
        """``is_zero_chunk`` used to fall through to the inner store, whose
        blob for a chunk that is dirty in the cache is stale: a checkpoint
        taken through the cache wrote chunk 2 as a zero-blob reference."""
        from repro.memory import load_store, save_store

        cache, store, _ = rig()
        data = np.full(8, 0.25, dtype=np.complex128)
        assert cache.is_zero_chunk(2)
        cache.store(2, data)
        assert store.is_zero_chunk(2)      # the inner blob is still zeros
        assert not cache.is_zero_chunk(2)  # the cached copy is newer
        save_store(cache, tmp_path / "c.mqs")
        back = load_store(tmp_path / "c.mqs", get_compressor("zlib"))
        assert np.array_equal(back.load(2), data)
        # clean entries and untouched chunks still answer from the store
        cache.load(3)
        assert cache.is_zero_chunk(3) and cache.is_zero_chunk(5)
        assert not cache.is_zero_chunk(0)


class TestPolicies:
    def test_mru_keeps_prefix_under_sweep(self):
        cache, _, _ = rig(n=7, c=3, capacity=4, policy="mru")  # 16 chunks
        for _ in range(2):
            for k in range(16):
                cache.load(k)
        # second sweep should hit on the retained low chunks
        assert cache.cache_stats.hits >= 3

    def test_lru_thrashes_under_sweep(self):
        cache, _, _ = rig(n=7, c=3, capacity=4, policy="lru")
        for _ in range(2):
            for k in range(16):
                cache.load(k)
        assert cache.cache_stats.hits == 0

    def test_lru_wins_on_hot_spot(self):
        cache, _, _ = rig(n=7, c=3, capacity=2, policy="lru")
        for _ in range(10):
            cache.load(0)
            cache.load(1)
        assert cache.cache_stats.hit_rate > 0.8


class TestConsistency:
    def test_permute_flushes_first(self):
        cache, store, _ = rig()
        cache.store(0, np.full(8, 0.5, dtype=np.complex128))
        nc = store.layout.num_chunks
        perm = list(range(nc))
        perm[0], perm[1] = perm[1], perm[0]
        cache.permute(perm)
        assert np.array_equal(cache.load(1), np.full(8, 0.5, dtype=np.complex128))
        assert np.all(cache.load(0) == 0)

    def test_zero_chunk_invalidates(self):
        cache, _, _ = rig()
        cache.store(3, np.full(8, 0.5, dtype=np.complex128))
        cache.zero_chunk(3)
        assert np.all(cache.load(3) == 0)

    def test_to_statevector_sees_dirty_data(self):
        cache, _, _ = rig()
        cache.store(0, np.full(8, 1 / np.sqrt(64), dtype=np.complex128))
        sv = cache.to_statevector()
        assert sv[0] == pytest.approx(1 / np.sqrt(64))

    def test_tracker_accounting(self):
        cache, _, tracker = rig(capacity=2)
        cache.load(0)
        cache.load(1)
        assert tracker.current("chunk_cache") == 2 * 8 * 16
        cache.flush()
        assert tracker.current("chunk_cache") == 0

    def test_repr(self):
        cache, _, _ = rig()
        assert "ChunkCache" in repr(cache)


class TestEndToEnd:
    @pytest.mark.parametrize("policy", ["lru", "mru"])
    def test_cached_run_identical(self, policy, dense):
        from repro.circuits import random_circuit
        from repro.core import MemQSim, MemQSimConfig
        from repro.device import DeviceSpec

        circ = random_circuit(8, 50, seed=44)
        cfg = MemQSimConfig(chunk_qubits=4, compressor="zlib",
                            device=DeviceSpec(memory_bytes=1 << 13))
        ref = MemQSim(cfg).run(circ).statevector()
        got = MemQSim(cfg.with_updates(cache_chunks=6, cache_policy=policy)) \
            .run(circ).statevector()
        assert np.allclose(got, ref, atol=1e-12)

    def test_cached_lossy_run_respects_bounds(self):
        from repro.circuits import qft
        from repro.core import MemQSim, MemQSimConfig
        from repro.device import DeviceSpec
        from repro.statevector import DenseSimulator

        circ = qft(9)
        cfg = MemQSimConfig(
            chunk_qubits=4,
            compressor="szlike", compressor_options={"error_bound": 1e-8},
            device=DeviceSpec(memory_bytes=1 << 13),
            cache_chunks=8,
        )
        res = MemQSim(cfg).run(circ)
        ref = DenseSimulator().run(circ).data
        assert res.fidelity_vs(ref) > 1 - 1e-6

    def test_cache_reduces_codec_traffic(self):
        from repro.circuits import qft
        from repro.core import MemQSim, MemQSimConfig
        from repro.device import DeviceSpec

        circ = qft(9)
        cfg = MemQSimConfig(chunk_qubits=4, compressor="zlib",
                            device=DeviceSpec(memory_bytes=1 << 13))
        plain = MemQSim(cfg).run(circ)
        cached = MemQSim(cfg.with_updates(cache_chunks=32)).run(circ)
        assert cached.timeline.count(Stage.COMPRESS) \
            < plain.timeline.count(Stage.COMPRESS)
