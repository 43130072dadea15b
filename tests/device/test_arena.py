"""Unit tests for the device memory arena."""

import numpy as np
import pytest

from repro.device import DeviceArena, DeviceOutOfMemory, DeviceSpec
from repro.memory import MemoryTracker


def arena(amps=64):
    return DeviceArena(DeviceSpec(memory_bytes=amps * 16))


class TestAlloc:
    def test_alloc_returns_view(self):
        a = arena()
        buf = a.alloc(16)
        assert buf.view.shape == (16,)
        buf.view[:] = 1.0
        assert a.used == 16

    def test_views_are_disjoint(self):
        a = arena()
        b1 = a.alloc(8)
        b2 = a.alloc(8)
        b1.view[:] = 1.0
        b2.view[:] = 2.0
        assert np.all(b1.view == 1.0)
        assert b1.offset != b2.offset

    def test_oom(self):
        a = arena(16)
        a.alloc(16)
        with pytest.raises(DeviceOutOfMemory):
            a.alloc(1)

    def test_oom_message_has_sizes(self):
        a = arena(16)
        with pytest.raises(DeviceOutOfMemory, match="bytes"):
            a.alloc(32)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            arena().alloc(0)

    def test_capacity_too_small(self):
        with pytest.raises(ValueError):
            DeviceArena(DeviceSpec(memory_bytes=8))

    def test_peak_tracking(self):
        a = arena(64)
        b1 = a.alloc(32)
        b2 = a.alloc(16)
        a.free(b1)
        assert a.peak_amplitudes == 48


class TestFree:
    def test_free_returns_capacity(self):
        a = arena(32)
        buf = a.alloc(32)
        a.free(buf)
        a.alloc(32)  # must succeed again

    def test_double_free_rejected(self):
        a = arena()
        buf = a.alloc(8)
        a.free(buf)
        with pytest.raises(ValueError):
            a.free(buf)

    def test_foreign_buffer_rejected(self):
        a = arena()
        b = arena()
        buf = b.alloc(8)
        with pytest.raises(ValueError):
            a.free(buf)

    def test_coalescing_allows_big_realloc(self):
        a = arena(64)
        bufs = [a.alloc(16) for _ in range(4)]
        # free middle two, then the edges: must coalesce back to 64
        a.free(bufs[1])
        a.free(bufs[2])
        a.free(bufs[0])
        a.free(bufs[3])
        assert a.largest_free_block == 64
        a.alloc(64)

    def test_fragmentation_visible(self):
        a = arena(64)
        bufs = [a.alloc(16) for _ in range(4)]
        a.free(bufs[0])
        a.free(bufs[2])
        assert a.free_amplitudes == 32
        assert a.largest_free_block == 16
        with pytest.raises(DeviceOutOfMemory):
            a.alloc(32)


class TestReset:
    def test_reset_clears_everything(self):
        tracker = MemoryTracker()
        a = DeviceArena(DeviceSpec(memory_bytes=64 * 16), tracker)
        a.alloc(16)
        a.alloc(16)
        a.reset()
        assert a.used == 0
        assert tracker.current("device_arena") == 0
        a.alloc(64)

    def test_tracker_integration(self):
        tracker = MemoryTracker()
        a = DeviceArena(DeviceSpec(memory_bytes=64 * 16), tracker)
        buf = a.alloc(32)
        assert tracker.current("device_arena") == 32 * 16
        a.free(buf)
        assert tracker.current("device_arena") == 0
        assert tracker.peak("device_arena") == 32 * 16


class TestSpec:
    def test_fits(self):
        spec = DeviceSpec(memory_bytes=1024)
        assert spec.fits(1024) and not spec.fits(1025)

    def test_max_qubits_resident(self):
        spec = DeviceSpec(memory_bytes=(1 << 10) * 16)
        assert spec.max_qubits_resident() == 10

    def test_host_max_dense(self):
        from repro.device import HostSpec

        assert HostSpec(memory_bytes=(1 << 20) * 16).max_qubits_dense() == 20
