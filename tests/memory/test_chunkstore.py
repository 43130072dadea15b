"""Unit tests for the compressed chunk store."""

import numpy as np
import pytest

from repro.compression import get_compressor
from repro.memory import ChunkLayout, CompressedChunkStore, MemoryTracker


def make_store(n=6, c=3, codec="zlib"):
    tracker = MemoryTracker()
    lay = ChunkLayout(n, c)
    return CompressedChunkStore(lay, get_compressor(codec), tracker), tracker


class TestInit:
    def test_zero_state(self):
        store, _ = make_store()
        store.init_zero_state()
        sv = store.to_statevector()
        assert sv[0] == 1.0
        assert np.count_nonzero(sv) == 1

    def test_from_statevector_roundtrip(self, random_state_fn):
        store, _ = make_store()
        v = random_state_fn(6, seed=1)
        store.init_from_statevector(v)
        assert np.array_equal(store.to_statevector(), v)

    def test_from_statevector_size_checked(self):
        store, _ = make_store()
        with pytest.raises(ValueError):
            store.init_from_statevector(np.zeros(4, dtype=complex))

    def test_uninitialized_load_raises(self):
        store, _ = make_store()
        with pytest.raises(KeyError):
            store.load(0)


class TestLoadStore:
    def test_load_into_buffer(self, random_state_fn):
        store, _ = make_store()
        v = random_state_fn(6, seed=2)
        store.init_from_statevector(v)
        buf = np.empty(8, dtype=np.complex128)
        out = store.load(3, out=buf)
        assert out is buf
        assert np.array_equal(buf, v[24:32])

    def test_store_replaces_chunk(self, random_state_fn):
        store, _ = make_store()
        store.init_zero_state()
        new = random_state_fn(3, seed=3)
        store.store(2, new)
        assert np.array_equal(store.load(2), new)
        # others untouched
        assert np.all(store.load(1) == 0)

    def test_store_size_checked(self):
        store, _ = make_store()
        store.init_zero_state()
        with pytest.raises(ValueError):
            store.store(0, np.zeros(4, dtype=complex))

    def test_stats_accumulate(self):
        store, _ = make_store()
        store.init_zero_state()
        before = store.stats.loads
        store.load(0)
        store.load(1)
        assert store.stats.loads == before + 2
        assert store.stats.decompress_seconds > 0
        assert store.stats.bytes_decompressed >= 2 * store.layout.chunk_nbytes


class TestAccounting:
    def test_tracker_matches_unique_bytes(self):
        store, tracker = make_store()
        store.init_zero_state()
        assert tracker.current("chunk_store") == store.compressed_nbytes()

    def test_tracker_after_stores(self, random_state_fn):
        store, tracker = make_store()
        store.init_zero_state()
        v = random_state_fn(3, seed=4)
        for k in range(store.layout.num_chunks):
            store.store(k, v)
        assert tracker.current("chunk_store") == store.compressed_nbytes()

    def test_zero_blob_interned(self):
        store, _ = make_store()
        store.init_zero_state()
        sizes = store.blob_sizes()
        # all-zero chunks share one blob: unique bytes well below sum
        assert store.compressed_nbytes() < sum(sizes)

    def test_compression_ratio_positive(self):
        store, _ = make_store()
        store.init_zero_state()
        assert store.compression_ratio() > 1.0

    def test_dense_nbytes(self):
        store, _ = make_store(6, 3)
        assert store.dense_nbytes() == 64 * 16


class TestPermute:
    def test_permute_swaps_chunks(self, random_state_fn):
        store, _ = make_store()
        v = random_state_fn(6, seed=5)
        store.init_from_statevector(v)
        nc = store.layout.num_chunks
        perm = list(range(nc))
        perm[0], perm[1] = perm[1], perm[0]
        store.permute(perm)
        got = store.to_statevector()
        want = v.copy()
        want[0:8], want[8:16] = v[8:16].copy(), v[0:8].copy()
        assert np.array_equal(got, want)

    def test_permute_validates_length(self):
        store, _ = make_store()
        store.init_zero_state()
        with pytest.raises(ValueError):
            store.permute([0, 1])

    def test_permute_validates_permutation(self):
        store, _ = make_store()
        store.init_zero_state()
        with pytest.raises(ValueError):
            store.permute([0] * store.layout.num_chunks)

    def test_x_gate_as_permutation_matches_dense(self, random_state_fn, dense):
        from repro.circuits import Circuit

        store, _ = make_store(6, 3)
        v = random_state_fn(6, seed=6)
        store.init_from_statevector(v)
        # X on qubit 4 (global, chunk bit 1)
        perm = [k ^ 2 for k in range(8)]
        store.permute(perm)
        ref = dense.run(Circuit(6).x(4), initial_state=None)
        from repro.statevector import StateVector, apply_gate
        from repro.circuits import gate_matrix

        want = v.copy()
        apply_gate(want, gate_matrix("x"), (4,))
        assert np.array_equal(store.to_statevector(), want)


class TestLossyStore:
    def test_szlike_store_bound(self, random_state_fn):
        tracker = MemoryTracker()
        lay = ChunkLayout(8, 4)
        store = CompressedChunkStore(
            lay, get_compressor("szlike", error_bound=1e-5), tracker
        )
        v = random_state_fn(8, seed=7)
        store.init_from_statevector(v)
        back = store.to_statevector()
        err = np.max(np.maximum(np.abs((v - back).real), np.abs((v - back).imag)))
        assert err <= 1e-5 * (1 + 1e-9)


class TestBlobAndBatchAPI:
    """Blob-level entry points used by the overlapped engine's codec pool."""

    def test_put_get_blob_roundtrip_and_accounting(self, random_state_fn):
        store, _ = make_store()
        v = random_state_fn(6, seed=3)
        store.init_from_statevector(v)
        blob = store.get_blob(2)
        assert blob == store.compressor.compress(store.load(2))
        before = store.stats.stores
        store.put_blob(2, blob, seconds=0.01, data_nbytes=128)
        assert store.stats.stores == before + 1
        np.testing.assert_array_equal(store.load(2), v[2 * 8:3 * 8])

    def test_note_decompressed_counts_loads(self):
        store, _ = make_store()
        store.init_zero_state()
        before = store.stats.loads
        store.note_decompressed(256, seconds=0.005)
        assert store.stats.loads == before + 1
        assert store.stats.bytes_decompressed >= 256


class TestEntropyChoiceCounters:
    def test_store_counts_entropy_choice(self, random_state_fn):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        tracker = MemoryTracker()
        lay = ChunkLayout(14, 13)  # one 2^13-amplitude chunk per store
        store = CompressedChunkStore(
            lay, get_compressor("szlike", error_bound=1e-5), tracker,
            telemetry=tel)
        store.init_from_statevector(random_state_fn(14, seed=5))
        counts = {
            name.rsplit(".", 1)[-1]: v
            for name, v in tel.metrics.snapshot()["counters"].items()
            if name.startswith("codec.entropy_choice.")
        }
        assert sum(counts.values()) == lay.num_chunks
        assert set(counts) <= {"huffman", "zlib", "raw"}

    def test_put_blob_counts_parent_side(self):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        lay = ChunkLayout(6, 3)
        comp = get_compressor("szlike", error_bound=1e-5)
        store = CompressedChunkStore(lay, comp, MemoryTracker(), telemetry=tel)
        store.init_zero_state()
        def total():
            return sum(
                v for name, v in tel.metrics.snapshot()["counters"].items()
                if name.startswith("codec.entropy_choice."))

        before = total()
        data = np.exp(1j * np.linspace(0, 2, 8)).astype(np.complex128)
        data /= np.linalg.norm(data)
        store.put_blob(1, comp.compress(data), seconds=0.0, data_nbytes=128)
        assert total() == before + 1

    def test_non_szl1_codec_contributes_nothing(self):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        lay = ChunkLayout(6, 3)
        store = CompressedChunkStore(
            lay, get_compressor("zlib"), MemoryTracker(), telemetry=tel)
        store.init_zero_state()
        assert not any(
            name.startswith("codec.entropy_choice.")
            for name in tel.metrics.snapshot()["counters"])
