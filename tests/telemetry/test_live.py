"""Exposition layer: Prometheus rendering, live state, the HTTP server."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.circuits import qft
from repro.core import MemQSim
from repro.telemetry import Telemetry
from repro.telemetry.live import (
    TelemetryServer,
    _prom_name,
    live_state,
    render_prometheus,
)


@pytest.fixture
def server():
    """A TelemetryServer on an ephemeral port, torn down after the test."""
    tel = Telemetry()
    srv = TelemetryServer(tel, port=0).start()
    yield srv
    srv.stop()


def _get(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.headers, resp.read().decode()


# -- Prometheus text rendering --------------------------------------------------

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
    # no tracker attached yet: no progress series, and nothing crashes
    assert "repro_progress_fraction" not in text


def test_render_prometheus_after_run_reports_finished_progress(tight_config):
    tel = Telemetry()
    MemQSim(tight_config, telemetry=tel).run(qft(8))
    text = render_prometheus(tel)
    assert "repro_progress_fraction 1" in text
    assert "repro_progress_eta_seconds 0" in text


def test_live_state_shape(tight_config):
    tel = Telemetry()
    MemQSim(tight_config, telemetry=tel).run(qft(8))
    state = live_state(tel)
    json.dumps(state, default=str)  # serializable, like /progress serves it
    assert state["progress"]["fraction"] == 1.0
    assert state["events"]["published"] > 0
    assert state["events"]["tail"]
    assert state["rss_bytes"] > 0
    assert set(state) >= {"time", "progress", "derived", "monitor", "events"}


# -- the HTTP server -------------------------------------------------------------

def test_server_binds_ephemeral_port_and_serves_index(server):
    assert server.port != 0
    status, _, body = _get(server.url + "/")
    assert status == 200
    doc = json.loads(body)
    assert set(doc["endpoints"]) == {"/metrics", "/progress", "/events"}


def test_metrics_endpoint_content_type(server):
    server.telemetry.metrics.counter("cache.hit").inc()
    status, headers, body = _get(server.url + "/metrics")
    assert status == 200
    assert "version=0.0.4" in headers["Content-Type"]
    assert "repro_cache_hit_total 1" in body


def test_progress_endpoint_serves_live_state(server):
    status, headers, body = _get(server.url + "/progress")
    assert status == 200
    assert headers["Content-Type"] == "application/json"
    doc = json.loads(body)
    assert doc["progress"] == {"enabled": False}  # no run attached yet


def test_unknown_path_is_404(server):
    with pytest.raises(urllib.error.HTTPError) as exc:
        _get(server.url + "/nope")
    assert exc.value.code == 404


def test_sse_stream_tails_the_bus(server):
    bus = server.telemetry.bus
    for i in range(5):
        bus.publish("warmup", i=i)
    status, headers, body = _get(
        server.url + "/events?tail=3&max_seconds=0.2")
    assert status == 200
    assert headers["Content-Type"] == "text/event-stream"
    frames = [json.loads(l[len("data: "):])
              for l in body.splitlines() if l.startswith("data: ")]
    assert [f["data"]["i"] for f in frames] == [2, 3, 4]  # tail=3 backfill


def test_server_against_a_real_run(tight_config):
    tel = Telemetry()
    srv = TelemetryServer(tel, port=0).start()
    try:
        MemQSim(tight_config, telemetry=tel).run(qft(8))
        # post-run pollers still see the finished tracker at exactly 1.0
        _, _, body = _get(srv.url + "/progress")
        doc = json.loads(body)
        assert doc["progress"]["fraction"] == 1.0
        assert doc["progress"]["finished"] is True
        assert doc["events"]["published"] > 0
        _, _, metrics = _get(srv.url + "/metrics")
        assert "repro_progress_fraction 1" in metrics
    finally:
        srv.stop()


def test_server_stop_is_idempotent_and_frees_the_port():
    srv = TelemetryServer(Telemetry(), port=0).start()
    url = srv.url
    srv.stop()
    srv.stop()  # second stop: no-op
    with pytest.raises((urllib.error.URLError, OSError)):
        _get(url + "/", timeout=0.5)


# -- cross-process clock merging -------------------------------------------------

def test_worker_events_re_anchor_onto_the_parent_axis():
    """Codec lane jobs land on the run's one axis: each one is a timeline
    row whose exported span starts where its lane measured it, on the
    tracer clock, between the main thread's own events — and the bus
    carries no per-job copy."""
    from repro.compression import get_compressor
    from repro.device import Timeline
    from repro.memory import ChunkLayout, CompressedChunkStore
    from repro.parallel import CodecWorkerPool

    tel = Telemetry()
    hops = Timeline()
    tel.tracer.attach(hops)
    store = CompressedChunkStore(ChunkLayout(8, 6), get_compressor("zlib"))
    store.report_codec_to(hops)
    tel.bus.publish("before")
    with CodecWorkerPool(store.compressor, workers=2) as pool:
        store.attach_lane(pool)
        for k in range(3):
            store.store(k, np.full(64, 0.5 + k * 1j))
        store.detach_lane()
    tel.bus.publish("after")
    events = tel.bus.snapshot()
    assert [e.kind for e in events] == ["before", "after"]
    spans = tel.tracer.find("compress")
    assert sorted(sp.args["chunk"] for sp in spans) == [0, 1, 2]
    for sp in spans:
        assert events[0].t <= sp.start <= sp.end <= events[1].t
        assert sp.tid == 100 + sp.args["lane"]


def test_parallel_run_merges_worker_events(tight_config):
    pool_cfg = tight_config.with_updates(workers=2, compressor="szlike")
    tel = Telemetry()
    res = MemQSim(pool_cfg, telemetry=tel).run(qft(8))
    assert res.norm() == pytest.approx(1.0, abs=1e-3)
    laned = [sp for sp in tel.tracer.spans if sp.args.get("lane")]
    assert laned, "the trace shows no lane work"
    wall = tel.tracer.now
    for sp in laned:
        assert 0.0 <= sp.start <= wall  # anchored inside the run window
        assert sp.name in ("compress", "decompress")
    events = tel.bus.snapshot()
    assert not [e for e in events if e.kind.startswith("worker.")]
    # the stream stays seq-ordered
    seqs = [e.seq for e in events]
    assert seqs == sorted(seqs)
