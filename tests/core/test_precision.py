"""Unit tests for the precision axis: dtype maps, plan keys, the mixed
backend wrapper, layout itemsize plumbing, and c64 checkpoint persistence."""

import numpy as np
import pytest

from repro.compression import get_compressor
from repro.core.backend import MixedPrecisionBackend, NumpyKernelBackend
from repro.core.config import MemQSimConfig
from repro.core.precision import (
    DEFAULT_PRECISION,
    PRECISIONS,
    analytic_overlap_bound,
    compute_dtype,
    storage_dtype,
    storage_itemsize,
    validate_precision,
)
from repro.circuits.generators import qft
from repro.memory import (
    ChunkLayout,
    CompressedChunkStore,
    MemoryTracker,
    load_store,
    save_store,
)


class TestPrecisionModule:
    def test_dtype_maps(self):
        assert storage_dtype("c128") == np.complex128
        assert storage_dtype("c64") == np.complex64
        assert storage_dtype("mixed") == np.complex64  # c64 at rest
        assert compute_dtype("c128") == np.complex128
        assert compute_dtype("c64") == np.complex64
        assert compute_dtype("mixed") == np.complex128  # c128 accumulation

    def test_itemsize(self):
        assert storage_itemsize("c128") == 16
        assert storage_itemsize("c64") == 8
        assert storage_itemsize("mixed") == 8

    def test_validate(self):
        for p in PRECISIONS:
            assert validate_precision(p) == p
        for bad in ("auto", "fp16"):
            with pytest.raises(ValueError):
                validate_precision(bad)
            with pytest.raises(ValueError):
                storage_dtype(bad)

    def test_default_is_full_precision(self):
        assert DEFAULT_PRECISION == "c128"
        assert MemQSimConfig().precision == "c128"

    def test_analytic_bound(self):
        assert analytic_overlap_bound("c128", 10 ** 9) == 1.0
        b = analytic_overlap_bound("c64", 100)
        assert 0.999 < b < 1.0
        # monotone in gate count, clamped at zero
        assert analytic_overlap_bound("c64", 1000) < b
        assert analytic_overlap_bound("c64", 10 ** 12) == 0.0


class TestConfigPlanKey:
    def test_precision_is_plan_relevant(self):
        k128 = MemQSimConfig(chunk_qubits=4, fuse_gates=False).plan_key()
        k64 = MemQSimConfig(chunk_qubits=4, precision="c64",
                            fuse_gates=False).plan_key()
        assert k128 != k64

    def test_storage_helpers_delegate(self):
        cfg = MemQSimConfig(precision="mixed")
        assert cfg.storage_dtype() == np.complex64
        assert cfg.storage_itemsize() == 8


class TestLayoutDtype:
    def test_dtype_property(self):
        assert ChunkLayout(6, 3).dtype == np.complex128
        assert ChunkLayout(6, 3, itemsize=8).dtype == np.complex64

    def test_chunk_nbytes_scale(self):
        full = ChunkLayout(10, 5)
        half = ChunkLayout(10, 5, itemsize=8)
        assert half.chunk_nbytes * 2 == full.chunk_nbytes


class TestMixedBackend:
    def test_upcast_round_trip(self):
        circ = list(qft(6))
        ref = np.zeros(1 << 6, dtype=np.complex128)
        ref[0] = 1.0
        NumpyKernelBackend().apply(ref, circ)

        buf = np.zeros(1 << 6, dtype=np.complex64)
        buf[0] = 1.0
        MixedPrecisionBackend(NumpyKernelBackend()).apply(buf, circ)
        assert buf.dtype == np.complex64  # rounded back in place
        # one downcast of the exact c128 result: float32-eps accurate
        assert np.allclose(buf.astype(np.complex128), ref, atol=2e-7)

    def test_c128_buffer_passes_through(self):
        circ = list(qft(5))
        ref = np.zeros(1 << 5, dtype=np.complex128)
        ref[0] = 1.0
        NumpyKernelBackend().apply(ref, circ)

        buf = np.zeros(1 << 5, dtype=np.complex128)
        buf[0] = 1.0
        MixedPrecisionBackend(NumpyKernelBackend()).apply(buf, circ)
        assert np.array_equal(buf, ref)  # no extra rounding step


class TestPersistC64:
    def _random_c64_store(self, n=6, c=3, seed=3):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        v = (v / np.linalg.norm(v)).astype(np.complex64)
        store = CompressedChunkStore(
            ChunkLayout(n, c, itemsize=8), get_compressor("zlib"),
            MemoryTracker())
        store.init_from_statevector(v)
        return store, v

    def test_mqs2_round_trip(self, tmp_path):
        # written as MQS3 now (MQS2 plus a CRC32 per blob); the itemsize
        # byte sits where MQS2 had it
        store, v = self._random_c64_store()
        p = tmp_path / "c64.mqs"
        save_store(store, p)
        assert p.read_bytes()[:4] == b"MQS3"
        assert p.read_bytes()[4] == 8  # itemsize byte

        back = load_store(p, get_compressor("zlib"))
        assert back.layout.itemsize == 8
        assert back.to_statevector().dtype == np.complex64
        assert np.array_equal(back.to_statevector(), v)

    def test_c128_store_writes_mqs3(self, tmp_path):
        store = CompressedChunkStore(
            ChunkLayout(4, 2), get_compressor("zlib"), MemoryTracker())
        store.init_zero_state()
        p = tmp_path / "c128.mqs"
        save_store(store, p)
        # one frame for both precisions: the itemsize byte says which
        assert p.read_bytes()[:5] == b"MQS3\x10"
        assert load_store(p, get_compressor("zlib")).layout.itemsize == 16
