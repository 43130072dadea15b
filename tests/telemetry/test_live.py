"""Prometheus text rendering: the body of the serve daemon's /metrics."""

from __future__ import annotations

from repro.telemetry import Telemetry
from repro.telemetry.live import _prom_name, render_prometheus


def test_prom_name_mangling():
    assert _prom_name("cache.hit") == "repro_cache_hit"
    assert _prom_name("transfer.h2d.bytes") == "repro_transfer_h2d_bytes"
    assert _prom_name("weird-name with spaces") == \
        "repro_weird_name_with_spaces"


def test_render_prometheus_counters_gauges_histograms():
    tel = Telemetry()
    tel.metrics.counter("cache.hit").inc(5)
    tel.metrics.gauge("mem.device_arena.bytes").set(1024)
    tel.metrics.histogram("kernel.seconds").observe(0.5)
    tel.metrics.histogram("kernel.seconds").observe(2.0)
    text = render_prometheus(tel)
    lines = text.splitlines()
    assert "repro_cache_hit_total 5" in lines
    assert "repro_mem_device_arena_bytes 1024" in lines
    # histograms render cumulative buckets plus +Inf, _sum and _count
    buckets = [l for l in lines if l.startswith("repro_kernel_seconds_bucket")]
    assert buckets and buckets[-1].startswith(
        'repro_kernel_seconds_bucket{le="+Inf"} 2')
    counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
    assert counts == sorted(counts)  # cumulative, monotonically increasing
    assert any(l.startswith("repro_kernel_seconds_count 2") for l in lines)
    assert any(l.startswith("repro_kernel_seconds_sum") for l in lines)
    # every sample line parses: "<name or name{labels}> <float>"
    for line in lines:
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        assert name
        float(value)


def test_render_prometheus_includes_bus_progress_and_rss():
    tel = Telemetry()
    tel.bus.publish("x")
    text = render_prometheus(tel)
    assert "repro_events_published_total 1" in text
    assert "repro_events_dropped_total 0" in text
    assert "repro_process_rss_bytes" in text
    # progress is served per daemon job (/jobs/{id}), never as a series
    assert "repro_progress_fraction" not in text
