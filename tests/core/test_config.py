"""Unit tests for MemQSimConfig."""

import pytest

from repro.core import MemQSimConfig
from repro.core.config import AUTO_MAX_CHUNK_QUBITS, AUTO_MIN_CHUNKS
from repro.device import DeviceSpec, HostSpec


class TestDefaults:
    def test_default_construction(self):
        cfg = MemQSimConfig()
        assert cfg.compressor == "szlike"

    def test_make_compressor(self):
        cfg = MemQSimConfig(compressor="zlib")
        c = cfg.make_compressor()
        assert c.name == "zlib"
        assert not c.is_lossy

    def test_with_updates(self):
        a = MemQSimConfig()
        b = a.with_updates(chunk_qubits=7)
        assert b.chunk_qubits == 7
        assert a.chunk_qubits == 0  # frozen original untouched

    def test_summary_renders(self):
        s = MemQSimConfig(compressor_options={"error_bound": 1e-5}).summary()
        assert "szlike" in s and "error_bound" in s


class TestChunkResolution:
    def test_explicit_passthrough(self):
        cfg = MemQSimConfig(chunk_qubits=6)
        assert cfg.resolve_chunk_qubits(10) == 6

    def test_explicit_too_large_rejected(self):
        with pytest.raises(ValueError):
            MemQSimConfig(chunk_qubits=12).resolve_chunk_qubits(10)

    def test_auto_keeps_min_chunks(self):
        # a device that never binds: only the chunk count limits the size
        cfg = MemQSimConfig(device=DeviceSpec(memory_bytes=1 << 30))
        assert AUTO_MIN_CHUNKS == 4
        for n in (3, 10, 16):
            assert 1 << (n - cfg.resolve_chunk_qubits(n)) == 4

    def test_auto_respects_device(self):
        # Tiny device: chunk must shrink so 2 group-of-2 buffers fit.
        cfg = MemQSimConfig(device=DeviceSpec(memory_bytes=(1 << 8) * 16))
        c = cfg.resolve_chunk_qubits(20)
        assert (1 << (c + 1)) * 16 * 2 <= (1 << 8) * 16 * 2
        assert c <= 6

    def test_auto_cap(self):
        cfg = MemQSimConfig(device=DeviceSpec(memory_bytes=1 << 30))
        assert AUTO_MAX_CHUNK_QUBITS == 14
        assert cfg.resolve_chunk_qubits(17) == 14
        assert cfg.resolve_chunk_qubits(30) == 14

    def test_auto_minimum_one(self):
        cfg = MemQSimConfig()
        assert cfg.resolve_chunk_qubits(2) >= 1


class TestPrecisionIsCheckedWhenBuilt:
    @pytest.mark.parametrize("precision", ["c32", "auto"])
    def test_an_unknown_precision_is_refused(self, precision):
        with pytest.raises(ValueError) as err:
            MemQSimConfig(precision=precision)
        assert all(p in str(err.value) for p in ("c128", "c64", "mixed"))
        with pytest.raises(ValueError):
            MemQSimConfig().with_updates(precision=precision)


class TestDerivedFusion:
    """An unset ``fuse_gates`` follows the codec: a lossy one fuses, a
    lossless one does not. ``plan_key()`` hashes the derived value."""

    #: plan_key() of a default config resolved to fuse_gates=False /
    #: True, as the run-time resolver computed them before fusion was
    #: derived in the config: plans and cache keys did not move
    UNFUSED_KEY = \
        "2b00ecf212f52004fcbde8012f1e9c1dc01b7624c6eb787a74cf56e66bbe4531"
    FUSED_KEY = \
        "51f20101f204c0dc0f8e6adf16ee670a295e124f673e0da6b0150b8d5a049369"

    @pytest.mark.parametrize("compressor, lossy", [("szlike", True),
                                                   ("zlib", False),
                                                   ("null", False)])
    def test_unset_fusion_follows_the_codec(self, compressor, lossy):
        cfg = MemQSimConfig(chunk_qubits=4, compressor=compressor)
        assert cfg.fuse_gates is None
        assert cfg.resolve_fuse_gates() is lossy
        assert cfg.plan_key() == cfg.with_updates(fuse_gates=lossy).plan_key()

    def test_a_named_value_is_honoured(self):
        for compressor in ("szlike", "zlib"):
            for named in (True, False):
                cfg = MemQSimConfig(compressor=compressor, fuse_gates=named)
                assert cfg.resolve_fuse_gates() is named

    def test_default_keys_follow_the_codec(self):
        lossless = MemQSimConfig(compressor="zlib")
        lossy = MemQSimConfig(compressor="szlike")
        assert lossless.plan_key() != lossy.plan_key()
        assert lossless.plan_key() == self.UNFUSED_KEY
        assert lossy.plan_key() == self.FUSED_KEY
        assert MemQSimConfig(fuse_gates=False).plan_key() == self.UNFUSED_KEY
        assert MemQSimConfig(compressor="zlib", fuse_gates=True).plan_key() \
            == self.FUSED_KEY

    def test_a_codec_swap_derives_afresh(self):
        # serve applies a tenant's codec with with_updates: nothing
        # derived from the base's codec may ride along
        lossy = MemQSimConfig(compressor="szlike")
        assert lossy.resolve_fuse_gates() is True
        swapped = lossy.with_updates(compressor="zlib")
        assert swapped.fuse_gates is None
        assert swapped.resolve_fuse_gates() is False
        assert swapped.plan_key() == self.UNFUSED_KEY


class TestWorkerResolution:
    def test_returns_positive_worker_count(self):
        cfg = MemQSimConfig(compressor="zlib", workers=0)
        workers = cfg.resolve_workers(1 << 12)
        assert isinstance(workers, int) and workers >= 1
        assert MemQSimConfig(workers=3).resolve_workers() == 3
