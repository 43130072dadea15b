"""ResourceMonitor: lifecycle, sampling under a running sim, null path."""

from __future__ import annotations

import json
import time

import pytest

from repro.circuits import qft
from repro.core import MemQSim, MemQSimConfig
from repro.telemetry import NULL_TELEMETRY, ResourceMonitor, Telemetry
from repro.telemetry.monitor import SAMPLE_FIELDS, read_rss_bytes


def test_read_rss_bytes_positive():
    assert read_rss_bytes() > 0


def test_start_stop_idempotent():
    mon = ResourceMonitor(Telemetry(), interval_ms=1.0)
    assert not mon.running
    mon.start()
    assert mon.start() is mon  # second start: no-op, same thread
    assert mon.running
    mon.stop()
    assert not mon.running
    n = len(mon.samples)
    assert n >= 1  # stop() takes the closing sample
    mon.stop()  # idempotent: no extra sample, no error
    assert len(mon.samples) == n
    # a stopped monitor cannot restart (one monitor per run)
    mon.start()
    assert not mon.running


def test_context_manager_samples():
    with ResourceMonitor(Telemetry(), interval_ms=1.0) as mon:
        time.sleep(0.02)
    assert not mon.running
    assert len(mon.samples) >= 2
    for s in mon.samples:
        assert set(s) == set(SAMPLE_FIELDS)
        assert s["rss_bytes"] > 0


def test_sample_reads_gauges_and_counters():
    tel = Telemetry()
    tel.metrics.gauge("mem.device_arena.bytes").set(4096)
    tel.metrics.counter("cache.hit").inc(3)
    tel.metrics.counter("cache.miss").inc(1)
    mon = ResourceMonitor(tel, interval_ms=1000.0)
    s = mon.sample_once()
    assert s["arena_bytes"] == 4096.0
    assert s["cache_hit_rate"] == pytest.approx(0.75)
    # ...and the sample landed in the tracer as counter events
    assert any(name == "mem.device_arena" for name, _, _ in tel.tracer.counters)


def test_timeline_shape_and_peaks():
    tel = Telemetry()
    mon = ResourceMonitor(tel, interval_ms=1000.0)
    tel.metrics.gauge("mem.device_arena.bytes").set(100)
    mon.sample_once()
    tel.metrics.gauge("mem.device_arena.bytes").set(700)
    mon.sample_once()
    tel.metrics.gauge("mem.device_arena.bytes").set(200)
    mon.stop()
    tl = mon.timeline()
    assert tl["num_samples"] == 3
    assert tl["fields"] == list(SAMPLE_FIELDS)
    assert len(tl["series"]["arena_bytes"]) == 3
    assert tl["peaks"]["arena_bytes"] == 700.0
    json.dumps(tl)  # the payload must be JSON-serializable as-is


def test_monitored_run_records_arena_rise_and_fall(tight_config):
    cfg = tight_config.with_updates(monitor_interval_ms=2.0)
    res = MemQSim(cfg, telemetry=Telemetry()).run(qft(8))
    tl = res.resource_timeline
    assert tl is not None and tl["num_samples"] >= 2
    arena = tl["series"]["arena_bytes"]
    # the scheduler's synchronous mid-pass sample catches the device
    # buffer live; the closing sample sees it freed again
    assert max(arena) > 0
    assert arena[-1] == 0.0
    assert "resource_timeline" in res.to_dict()


def test_trace_counter_events_exported(tight_config, tmp_path):
    tel = Telemetry()
    cfg = tight_config.with_updates(monitor_interval_ms=2.0)
    MemQSim(cfg, telemetry=tel).run(qft(8))
    out = tmp_path / "run.trace.json"
    tel.tracer.write_chrome_trace(str(out))
    events = json.loads(out.read_text())["traceEvents"]
    counters = [e for e in events if e["ph"] == "C"]
    assert {e["name"] for e in counters} >= {
        "mem.rss", "mem.device_arena", "mem.chunk_store",
        "cache.hit_rate", "codec.bytes"}
    ts = [e["ts"] for e in counters]
    assert ts == sorted(ts)  # counter events come out time-ordered


def test_disabled_path_is_null(tight_config):
    # default config: no monitor, no timeline
    tel = Telemetry()
    res = MemQSim(tight_config, telemetry=tel).run(qft(8))
    assert res.resource_timeline is None
    assert "resource_timeline" not in res.to_dict()
    assert tel.monitor is None
    # monitor_interval_ms set but telemetry disabled: still the null path
    cfg = tight_config.with_updates(monitor_interval_ms=5.0)
    res = MemQSim(cfg, telemetry=NULL_TELEMETRY).run(qft(8))
    assert res.resource_timeline is None


def test_poke_is_rate_limited_to_the_interval():
    mon = ResourceMonitor(Telemetry(), interval_ms=10_000.0)
    mon.poke()
    assert len(mon.samples) == 1
    for _ in range(50):
        mon.poke()  # all inside the interval: free no-ops
    assert len(mon.samples) == 1
    mon._last_poke = -float("inf")  # simulate the interval elapsing
    mon.poke()
    assert len(mon.samples) == 2


def test_stop_takes_final_sample_when_run_raises(tight_config, monkeypatch):
    """The memqsim finally-path must close the series on exceptions too."""
    from repro.pipeline.scheduler import StageScheduler

    captured = {}
    tel = Telemetry()

    def boom(self, stage, si, groups):
        captured["monitor"] = tel.monitor
        raise RuntimeError("injected mid-run failure")

    monkeypatch.setattr(StageScheduler, "_run_stage", boom)
    cfg = tight_config.with_updates(monitor_interval_ms=1000.0)
    with pytest.raises(RuntimeError, match="injected"):
        MemQSim(cfg, telemetry=tel).run(qft(8))
    mon = captured["monitor"]
    assert mon is not None
    assert not mon.running
    assert len(mon.samples) >= 1  # the closing data point landed
    # and the telemetry no longer points at the dead monitor
    assert tel.monitor is None


def test_sampler_thread_survives_bad_reads(monkeypatch):
    calls = {"n": 0}
    mon = ResourceMonitor(Telemetry(), interval_ms=1.0)
    orig = ResourceMonitor.sample_once

    def flaky(self):
        calls["n"] += 1
        if calls["n"] % 2:
            raise OSError("procfs hiccup")
        return orig(self)

    monkeypatch.setattr(ResourceMonitor, "sample_once", flaky)
    mon.start()
    time.sleep(0.05)
    mon.stop()
    assert calls["n"] >= 4  # kept sampling straight through the failures
    assert len(mon.samples) >= 1


def test_samples_publish_onto_the_bus():
    tel = Telemetry()
    mon = ResourceMonitor(tel, interval_ms=1000.0)
    mon.sample_once()
    events = [e for e in tel.bus.snapshot() if e.kind == "monitor.sample"]
    assert len(events) == 1
    assert events[0].data["rss_bytes"] > 0
    assert "t" not in events[0].data  # the timestamp rides on the event


def test_null_monitor_is_free():
    """No monitor is no object: the loop's "device buffer live" report goes
    nowhere, and attaches none."""
    tel = Telemetry()
    assert tel.monitor is None
    tel.observer().device_buffer_live()
    assert tel.monitor is None
