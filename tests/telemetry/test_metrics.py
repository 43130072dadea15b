"""Metrics registry unit tests: instruments, buckets, snapshots."""

import json
import time

import pytest

from repro.telemetry import (
    DEFAULT_BYTES_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc(self):
        m = MetricsRegistry()
        c = m.counter("cache.hit")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert m.counter("cache.hit") is c  # get-or-create

    def test_negative_rejected(self):
        c = MetricsRegistry().counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)


class TestGauge:
    def test_set_tracks_max(self):
        g = MetricsRegistry().gauge("mem.pool.bytes")
        g.set(100)
        g.set(300)
        g.set(50)
        assert g.value == 50
        assert g.max_value == 300
        assert g.snapshot() == {"value": 50, "max": 300}

    def test_add(self):
        g = MetricsRegistry().gauge("x")
        g.add(10)
        g.add(-4)
        assert g.value == 6
        assert g.max_value == 10


class TestHistogram:
    def test_bucket_edges_le_semantics(self):
        h = Histogram("t", edges=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 5.0, 10.0, 11.0, 1000.0):
            h.observe(v)
        snap = h.snapshot()
        # bisect_left: v == edge lands in that edge's (<=) bucket
        assert snap["buckets"] == {"<=1": 2, "<=10": 2, "<=100": 1, "+Inf": 1}
        assert snap["count"] == 6
        assert snap["min"] == 0.5
        assert snap["max"] == 1000.0
        assert snap["sum"] == pytest.approx(1027.5)

    def test_empty_snapshot_has_null_min_max(self):
        snap = Histogram("t").snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None
        assert snap["mean"] == 0.0

    def test_edges_must_ascend(self):
        with pytest.raises(ValueError):
            Histogram("bad", edges=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", edges=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", edges=())

    def test_default_edges(self):
        assert DEFAULT_SECONDS_BUCKETS[0] == 1e-6
        assert DEFAULT_SECONDS_BUCKETS[-1] == 10.0
        assert DEFAULT_BYTES_BUCKETS[0] == 16.0
        assert DEFAULT_BYTES_BUCKETS[-1] == float(16 << 32)  # 16 * 2^32

    def test_bucket_labels_align_with_counts(self):
        h = Histogram("t", edges=(1.0, 2.0))
        assert h.bucket_labels() == ["<=1", "<=2", "+Inf"]
        assert len(h.counts) == 3


class TestTimer:
    def test_timer_observes_elapsed(self):
        m = MetricsRegistry()
        with m.timer("compile.seconds") as t:
            time.sleep(0.002)
        assert t.seconds >= 0.002
        h = m.histogram("compile.seconds")
        assert h.count == 1
        assert h.total == pytest.approx(t.seconds)


class TestRegistry:
    def test_snapshot_shape(self):
        m = MetricsRegistry()
        m.counter("c").inc(2)
        m.gauge("g").set(1.5)
        m.histogram("h").observe(0.5)
        snap = m.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": {"value": 1.5, "max": 1.5}}
        assert snap["histograms"]["h"]["count"] == 1

    def test_declare_standard_preregisters(self):
        m = MetricsRegistry()
        m.declare_standard()
        snap = m.snapshot()
        for name in ("cache.hit", "cache.miss", "cache.writeback",
                     "cache.eviction", "pool.acquire.count"):
            assert snap["counters"][name] == 0
        # no instrument copies a hop: those are timeline rows
        assert not [name for name in snap["counters"]
                    if name.split(".")[0] in ("codec", "transfer", "kernel")]
        assert snap["histograms"] == {}

    def test_to_json_is_valid(self, tmp_path):
        m = MetricsRegistry()
        m.declare_standard()
        m.histogram("h").observe(0.1)
        doc = json.loads(m.to_json())
        assert "counters" in doc and "histograms" in doc
        path = tmp_path / "m.json"
        nb = m.write_json(str(path))
        assert nb == path.stat().st_size
        json.loads(path.read_text())

    def test_clear(self):
        m = MetricsRegistry()
        m.counter("c").inc()
        m.clear()
        assert m.snapshot() == {"counters": {}, "gauges": {},
                                "histograms": {}}


class TestDerivedGauges:
    def test_decode_bytes_per_s(self):
        """The decode rate is the decompress rows' bytes over their
        seconds; the ratio is the ledger's codec bytes in over out, both
        read off the rows."""
        from repro.device import Stage, Timeline
        from repro.telemetry import Telemetry

        tel = Telemetry()
        hops = Timeline()
        tel.tracer.attach(hops)
        hops.record(Stage.DECOMPRESS, 0.0, 1.5, 0, 0, 6_000_000)
        hops.record(Stage.COMPRESS, 1.5, 9.0, 0, 0, 300, 0, 0, 100)
        hops.record(Stage.DECOMPRESS, 10.5, 0.5, 0, 1, 2_000_000)
        derived = tel.snapshot()["derived"]
        assert derived["codec.decode_bytes_per_s"] == pytest.approx(4_000_000)
        assert derived["codec.compression_ratio"] == pytest.approx(3.0)
        # rows booked after a poll count at the next one, and only once
        hops.record(Stage.DECOMPRESS, 11.0, 2.0, 1, 0, 4_000_000)
        assert tel.traffic.decoded() == (12_000_000, pytest.approx(4.0))
        assert tel.traffic.decoded() == (12_000_000, pytest.approx(4.0))

    def test_decode_rate_absent_without_samples(self):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        assert tel.metrics.derived_gauges(tel.traffic).get(
            "codec.decode_bytes_per_s") is None
        assert MetricsRegistry().derived_gauges()[
            "codec.compression_ratio"] is None

    def test_decode_rate_in_snapshot(self):
        from repro.device import Stage, Timeline
        from repro.telemetry import Telemetry

        tel = Telemetry()
        hops = Timeline()
        tel.tracer.attach(hops)
        hops.record(Stage.DECOMPRESS, 0.0, 0.5, 0, 0, 10, 0, 0, 4)
        snap = tel.metrics.snapshot(tel.traffic)
        assert snap["derived"]["codec.decode_bytes_per_s"] == 20.0
        # a bare registry with no source keeps the bare 3-section shape
        assert "derived" not in MetricsRegistry().snapshot()
