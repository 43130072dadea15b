"""MemoryTracker edge cases and telemetry gauge mirroring."""

import math

import pytest

from repro.memory.accounting import MemoryTracker
from repro.telemetry import Telemetry


class TestBalances:
    def test_alloc_free_roundtrip(self):
        t = MemoryTracker()
        t.alloc("chunk_store", 100)
        t.free("chunk_store", 100)
        assert t.current("chunk_store") == 0
        assert t.peak("chunk_store") == 100

    def test_free_to_zero_keeps_peak(self):
        t = MemoryTracker()
        t.alloc("a", 64)
        t.alloc("a", 64)
        t.free("a", 128)
        assert t.current("a") == 0
        assert t.peak("a") == 128
        assert t.total_current() == 0
        assert t.total_peak() == 128

    def test_negative_free_raises(self):
        t = MemoryTracker()
        t.alloc("a", 10)
        with pytest.raises(ValueError):
            t.free("a", 11)
        with pytest.raises(ValueError):
            t.free("never_allocated", 1)
        # failed free must not corrupt the balance
        assert t.current("a") == 10

    def test_negative_alloc_raises(self):
        with pytest.raises(ValueError):
            MemoryTracker().alloc("a", -1)

    def test_unknown_category_reads_as_zero(self):
        t = MemoryTracker()
        assert t.current("ghost") == 0
        assert t.peak("ghost") == 0


class TestPeaks:
    def test_multi_category_peak_interleaving(self):
        # Per-category peaks happen at different instants than the total
        # peak: total peak is the high-water mark of the *sum*.
        t = MemoryTracker()
        t.alloc("host", 100)      # host=100, total=100
        t.alloc("device", 50)     # total=150 <- total peak so far
        t.free("host", 100)       # total=50
        t.alloc("device", 60)     # device=110 (its peak), total=110
        assert t.peak("host") == 100
        assert t.peak("device") == 110
        assert t.total_peak() == 150
        assert t.total_current() == 110

    def test_resize_does_not_double_count(self):
        t = MemoryTracker()
        t.alloc("buf", 100)
        t.resize("buf", 100, 120)
        # a naive alloc-then-free would have shown a 220 peak
        assert t.peak("buf") == 120
        assert t.current("buf") == 120

    def test_categories_sorted_union(self):
        t = MemoryTracker()
        t.alloc("b", 1)
        t.alloc("a", 1)
        t.free("b", 1)
        assert t.categories() == ("a", "b")


class TestSnapshots:
    def test_snapshot_labels_and_isolation(self):
        t = MemoryTracker()
        t.alloc("a", 10)
        s1 = t.snapshot("after-alloc")
        t.alloc("a", 5)
        s2 = t.snapshot("later")
        assert [s.label for s in t.snapshots] == ["after-alloc", "later"]
        # snapshots are point-in-time copies, not live views
        assert s1.current == {"a": 10} and s1.total == 10
        assert s2.current == {"a": 15} and s2.total == 15


class TestDerivedFigures:
    def test_dense_bytes(self):
        assert MemoryTracker.dense_bytes(10) == (1 << 10) * 16

    def test_effective_ratio(self):
        t = MemoryTracker()
        t.alloc("chunk_store", MemoryTracker.dense_bytes(10) // 4)
        t.free("chunk_store", t.current("chunk_store"))
        assert t.effective_ratio(10) == pytest.approx(4.0)

    def test_effective_ratio_empty_is_inf(self):
        assert MemoryTracker().effective_ratio(10) == math.inf

    def test_extra_qubits_from_ratio(self):
        assert MemoryTracker.extra_qubits_from_ratio(32.0) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            MemoryTracker.extra_qubits_from_ratio(0.0)

    def test_report_lists_all_categories(self):
        t = MemoryTracker()
        t.alloc("host", 1024)
        t.alloc("device", 2048)
        rep = t.report()
        assert "host" in rep and "device" in rep and "TOTAL" in rep
        assert "3,072" in rep


class TestGaugeMirroring:
    def test_alloc_free_drive_gauge(self):
        tel = Telemetry()
        t = MemoryTracker(telemetry=tel)
        t.alloc("chunk_store", 100)
        t.alloc("chunk_store", 50)
        t.free("chunk_store", 120)
        g = tel.metrics.snapshot()["gauges"]["mem.chunk_store.bytes"]
        assert g["value"] == 30
        assert g["max"] == 150  # gauge max mirrors the tracker peak
        assert t.peak("chunk_store") == 150

    def test_attach_telemetry_mirrors_existing_balances(self):
        t = MemoryTracker()
        t.alloc("host", 77)
        tel = Telemetry()
        t.attach_telemetry(tel)
        g = tel.metrics.snapshot()["gauges"]["mem.host.bytes"]
        assert g["value"] == 77

    def test_disabled_telemetry_records_nothing(self):
        tel = Telemetry.disabled()  # holds no sink: touching one raises
        t = MemoryTracker(telemetry=tel)
        t.alloc("host", 10)
        t.attach_telemetry(tel)
        assert t.peak("host") == 10
