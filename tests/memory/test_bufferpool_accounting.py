"""Unit tests for the buffer pool and memory tracker."""

import math

import numpy as np
import pytest

from repro.memory import BufferPool, MemoryTracker


class TestBufferPool:
    def test_acquire_release_cycle(self):
        pool = BufferPool(2, 64)
        a = pool.acquire()
        b = pool.acquire()
        assert a.shape == (64,) and a.dtype == np.complex128
        assert pool.available == 0
        pool.release(a)
        pool.release(b)
        assert pool.available == 2

    def test_exhaustion_raises(self):
        pool = BufferPool(1, 8)
        pool.acquire()
        with pytest.raises(RuntimeError):
            pool.acquire()

    def test_foreign_buffer_rejected(self):
        pool = BufferPool(1, 8)
        with pytest.raises(ValueError):
            pool.release(np.empty(8, dtype=np.complex128))

    def test_double_release_rejected(self):
        pool = BufferPool(1, 8)
        buf = pool.acquire()
        pool.release(buf)
        with pytest.raises(ValueError):
            pool.release(buf)

    def test_peak_in_use(self):
        pool = BufferPool(3, 8)
        a = pool.acquire()
        b = pool.acquire()
        pool.release(a)
        pool.release(b)
        assert pool.peak_in_use == 2

    def test_accounting(self):
        """A buffer is booked when it is first handed out, not before: the
        tracker's peak is what was staged through, not the cap."""
        tracker = MemoryTracker()
        pool = BufferPool(2, 32, tracker)
        assert tracker.current("host_buffers") == 0
        a = pool.acquire()
        pool.release(a)
        assert pool.acquire() is a  # reused, nothing new booked
        assert tracker.current("host_buffers") == 32 * 16
        b = pool.acquire()
        assert tracker.current("host_buffers") == 2 * 32 * 16
        pool.release(a)
        pool.release(b)
        pool.close()
        assert tracker.current("host_buffers") == 0
        assert tracker.peak("host_buffers") == 2 * 32 * 16

    def test_close_with_outstanding_raises(self):
        pool = BufferPool(1, 8)
        pool.acquire()
        with pytest.raises(RuntimeError):
            pool.close()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BufferPool(0, 8)
        with pytest.raises(ValueError):
            BufferPool(1, 0)


class TestMemoryTracker:
    def test_alloc_free_balance(self):
        t = MemoryTracker()
        t.alloc("x", 100)
        t.alloc("x", 50)
        t.free("x", 120)
        assert t.current("x") == 30
        assert t.peak("x") == 150

    def test_negative_balance_rejected(self):
        t = MemoryTracker()
        t.alloc("x", 10)
        with pytest.raises(ValueError):
            t.free("x", 20)

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            MemoryTracker().alloc("x", -1)

    def test_total_peak_across_categories(self):
        t = MemoryTracker()
        t.alloc("a", 100)
        t.alloc("b", 50)
        t.free("a", 100)
        t.alloc("b", 10)
        assert t.total_peak() == 150
        assert t.total_current() == 60

    def test_resize_does_not_double_count(self):
        t = MemoryTracker()
        t.alloc("a", 100)
        t.resize("a", 100, 80)
        assert t.peak("a") == 100
        assert t.current("a") == 80

    def test_snapshot(self):
        t = MemoryTracker()
        t.alloc("a", 7)
        snap = t.snapshot("after-a")
        assert snap.total == 7
        assert t.snapshots[0].label == "after-a"

    def test_dense_bytes(self):
        assert MemoryTracker.dense_bytes(10) == 1024 * 16

    def test_effective_ratio(self):
        t = MemoryTracker()
        t.alloc("chunk_store", 1024)
        assert t.effective_ratio(10) == pytest.approx(16.0)

    def test_effective_ratio_empty_is_inf(self):
        assert math.isinf(MemoryTracker().effective_ratio(10))

    def test_extra_qubits_from_ratio(self):
        assert MemoryTracker.extra_qubits_from_ratio(32.0) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            MemoryTracker.extra_qubits_from_ratio(0.0)

    def test_report_renders(self):
        t = MemoryTracker()
        t.alloc("a", 5)
        rep = t.report()
        assert "a" in rep and "TOTAL" in rep
