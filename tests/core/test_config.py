"""Unit tests for MemQSimConfig."""

import pytest

from repro.core import MemQSimConfig
from repro.core.config import AUTO_MAX_CHUNK_QUBITS, AUTO_MIN_CHUNKS
from repro.device import DeviceSpec, HostSpec


class TestDefaults:
    def test_default_construction(self):
        cfg = MemQSimConfig()
        assert cfg.compressor == "szlike"
        assert cfg.num_buffers == 2

    def test_make_compressor(self):
        cfg = MemQSimConfig(compressor="zlib", compressor_options={"level": 6})
        c = cfg.make_compressor()
        assert c.name == "zlib"
        assert c.level == 6

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
