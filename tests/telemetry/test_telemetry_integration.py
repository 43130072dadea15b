"""Telemetry threaded through the pipeline: spans, metrics, equivalence.

These are the tests for the observability *wiring*: a traced MEMQSim run
must produce one span per pipeline hop — drawn from the run's timeline
rows, its one record — and a ledger and metrics that agree with those
rows. Plus the contract that disabled telemetry is effectively free.
"""

import json
import time

import pytest

from repro.circuits import ghz, qft
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec
from repro.device.timeline import Stage, Timeline
from repro.telemetry import NULL_OBSERVER, NULL_TELEMETRY, Telemetry


def traced_run(circuit, tel=None, **cfg_kw):
    defaults = dict(
        chunk_qubits=4,
        compressor="zlib",
        # groups of 2 chunks, double-buffered: forces several group passes
        device=DeviceSpec(memory_bytes=(1 << 5) * 16 * 2),
    )
    defaults.update(cfg_kw)
    tel = tel if tel is not None else Telemetry()
    res = MemQSim(MemQSimConfig(**defaults), telemetry=tel).run(circuit)
    return res, tel


class TestTelemetryFacade:
    def test_enabled_bundles_real_instruments(self):
        tel = Telemetry()
        assert tel.enabled
        assert len(tel.tracer) == 0 and tel.bus.published == 0
        # declare_standard ran: acceptance counters pre-registered at 0
        assert tel.metrics.snapshot()["counters"]["cache.hit"] == 0

    def test_disabled_bundles_null_twins(self):
        """...bundles nothing: one disabled object, and every sink of it
        fails loudly instead of returning a typed empty."""
        tel = Telemetry.disabled()
        assert not tel.enabled
        assert NULL_TELEMETRY.enabled is False
        for sink in ("tracer", "metrics", "bus", "traffic", "access",
                     "progress", "monitor"):
            with pytest.raises(AttributeError, match="telemetry is disabled"):
                getattr(tel, sink)
        for touch in (lambda: tel.span("x"), lambda: tel.emit("x"),
                      tel.snapshot):
            with pytest.raises(AttributeError, match="telemetry is disabled"):
                touch()
        # the loop's seam needs no guard: nobody listens
        assert tel.observer() is NULL_OBSERVER

    def test_stage_span_feeds_timeline_and_tracer(self):
        """One booking on the timeline; the span is drawn from the row when
        the tracer is read, and nothing else hears of it."""
        tel = Telemetry()
        tl = Timeline()
        tel.tracer.attach(tl)
        t0 = time.perf_counter()
        tl.record(Stage.H2D, t0, 0.001, 2, 5, 1024)
        assert tl.count(Stage.H2D) == 1
        [sp] = tel.tracer.find("h2d")
        assert sp.duration == 0.001
        assert sp.start == pytest.approx(t0 - tel.tracer._epoch)
        assert sp.args == {"group": 2, "chunk": 5, "nbytes": 1024, "lane": 0,
                           "ops": 0}
        assert tel.bus.published == 0
        assert tel.metrics.snapshot()["counters"] == {
            name: 0 for name in tel.metrics.snapshot()["counters"]}

    def test_stage_span_feeds_timeline_even_when_disabled(self):
        tl = Timeline()  # nobody attached: what a disabled run builds
        tl.record(Stage.KERNEL, 0.0, 0.002, 0, -1, 64, 0, 3)
        assert tl.count(Stage.KERNEL) == 1
        assert tl.rows[0][2] == 0.002 and tl.rows[0][7] == 3

    def test_record_stage(self):
        tel = Telemetry()
        tl = Timeline()
        tel.tracer.attach(tl)
        tl.record(Stage.D2H, time.perf_counter(), 0.125, 1, -1, 512)
        assert tl.rows[0][2] == 0.125
        [sp] = tel.tracer.find("d2h")
        assert sp.duration == 0.125
        assert (sp.args["group"], sp.args["chunk"], sp.args["nbytes"]) == \
            (1, -1, 512)
        tel.tracer.clear()
        assert tel.tracer.find("d2h") == [] and len(tel.tracer) == 0


class TestPipelineTrace:
    def test_one_span_per_stage_per_group_pass(self):
        res, tel = traced_run(qft(8))
        tr = tel.tracer
        passes = res.scheduler_stats.group_passes
        assert passes > 1  # the tight device really forced streaming
        assert len(tr.find("group_pass")) == passes
        # Device-path passes: one h2d, one kernel batch, one d2h each.
        for name in ("h2d", "d2h", "kernel"):
            assert len(tr.find(name)) == passes
        # Codec hops: one per chunk per pass (2 chunks per group here),
        # and init_zero_state's two compressions, rows of the offline
        # timeline the run attaches beside its own.
        assert len(tr.find("decompress")) == res.timeline.count(Stage.DECOMPRESS)
        assert len(tr.find("compress")) == res.timeline.count(Stage.COMPRESS) + 2
        # Phase framing spans are present.
        assert len(tr.find("offline")) == 1
        assert len(tr.find("online")) == 1
        assert len(tr.find("run")) == 1
        assert len(tr.find("stage")) == res.plan.num_stages

    def test_every_pipeline_stage_kind_appears(self):
        res, tel = traced_run(qft(8))
        names = {s.name for s in tel.tracer.spans}
        for stage in (Stage.DECOMPRESS, Stage.H2D, Stage.KERNEL, Stage.D2H,
                      Stage.COMPRESS):
            assert stage.value in names

    def test_span_nesting_group_pass_under_online(self):
        _, tel = traced_run(ghz(8))
        for sp in tel.tracer.find("group_pass"):
            assert sp.parent == "stage"
        for sp in tel.tracer.find("stage"):
            assert sp.parent == "online"

    def test_chrome_trace_export_of_real_run(self, tmp_path):
        _, tel = traced_run(qft(8))
        path = tmp_path / "run.trace.json"
        tel.tracer.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == len(tel.tracer)
        for e in complete:
            assert e["ts"] >= 0.0 and e["dur"] >= 0.0


class TestHopSpansFromTimeline:
    def test_export_draws_one_span_per_row(self):
        res, tel = traced_run(qft(8))
        epoch = tel.tracer._epoch
        hops = [sp for sp in tel.tracer.spans
                if sp.name in {s.value for s in Stage}]
        # the offline timeline's two set-up compressions come first
        assert len(hops) == 2 + res.timeline.count()
        for sp, row in zip(hops[2:], res.timeline.rows):
            stage, start, seconds, group, chunk, nbytes, lane, ops, *_ = row
            assert sp.name == stage.value and sp.duration == seconds
            assert sp.start == pytest.approx(start - epoch, abs=1e-12)
            assert sp.args == dict(group=group, chunk=chunk, nbytes=nbytes,
                                   lane=lane, ops=ops)
            assert lane == 0 and sp.tid == 0

    def test_structural_spans_are_not_rows(self):
        res, tel = traced_run(ghz(8))
        hop_names = {s.value for s in Stage}
        structural = [sp for sp in tel.tracer.spans
                      if sp.name not in hop_names]
        assert {sp.name for sp in structural} >= {"run", "online", "stage"}
        assert len(tel.tracer) == len(structural) + res.timeline.count() + 2


class TestPipelineMetrics:
    def test_transfer_counters_match_timeline(self):
        """The ledger's arena edge holds the bytes and calls of the copy
        rows, to the byte; the registry keeps no copy of them."""
        res, tel = traced_run(qft(8))
        snap = tel.metrics.snapshot()
        for stage in (Stage.H2D, Stage.D2H):
            moved = sum(r[5] for r in res.timeline.rows if r[0] == stage)
            edge = f"arena.{stage.value}"
            assert tel.traffic.totals()[edge] == {
                "bytes": moved, "ops": res.timeline.count(stage)}
            assert f"traffic.{edge}.bytes" not in snap["counters"]

    def test_codec_metrics(self):
        """The ledger counts the store's codec calls over its lifetime: the
        run's rows plus ``init_zero_state``'s two compressions."""
        res, tel = traced_run(qft(8))
        snap = tel.snapshot()
        totals = tel.traffic.totals()
        assert totals["codec.raw_in"]["ops"] == \
            res.timeline.count(Stage.COMPRESS) + 2
        assert totals["codec.raw_out"]["ops"] == \
            res.timeline.count(Stage.DECOMPRESS)
        assert totals["codec.compressed_out"]["bytes"] > 0
        assert snap["derived"]["codec.compression_ratio"] == pytest.approx(
            totals["codec.raw_in"]["bytes"]
            / totals["codec.compressed_out"]["bytes"])

    def test_cache_counters(self):
        res, tel = traced_run(qft(8), cache_chunks=8)
        snap = tel.metrics.snapshot()
        stats = res.store.cache_stats
        assert snap["counters"]["cache.hit"] == stats.hits
        assert snap["counters"]["cache.miss"] == stats.misses
        assert stats.hits + stats.misses > 0

    def test_pool_and_memory_gauges(self):
        _, tel = traced_run(ghz(8))
        snap = tel.metrics.snapshot()
        assert snap["counters"]["pool.acquire.count"] > 0
        assert snap["gauges"]["mem.chunk_store.bytes"]["max"] > 0
        assert snap["gauges"]["mem.host_buffers.bytes"]["max"] > 0

    def test_result_to_dict_includes_metrics(self):
        res, _ = traced_run(ghz(8))
        d = res.to_dict()
        assert "metrics" in d
        assert d["metrics"]["counters"]["pool.acquire.count"] > 0
        assert d["traffic"]["totals"]["arena.h2d"]["bytes"] > 0
        json.dumps(d)  # strictly serializable

    def test_result_to_dict_without_telemetry(self):
        res = MemQSim(chunk_qubits=4, compressor="zlib").run(ghz(8))
        d = res.to_dict()
        assert "metrics" not in d
        assert d["stage_event_counts"]["kernel"] >= 1
        json.dumps(d)

    def test_report_has_telemetry_section(self):
        res, _ = traced_run(ghz(8))
        assert "telemetry:" in res.report()
        plain = MemQSim(chunk_qubits=4, compressor="zlib").run(ghz(8))
        assert "telemetry:" not in plain.report()


class TestDisabledOverhead:
    def test_null_span_is_cheap(self):
        """The disabled fast path must stay in no-op territory.

        Bound is deliberately loose (50x a typical interpreter dict lookup)
        so this only fails if someone accidentally makes the null path
        allocate or format.
        """
        obs = NULL_TELEMETRY.observer()
        n = 20_000
        t0 = time.perf_counter()
        for _ in range(n):
            with obs.group_pass(0, 0, (0, 1), 64):
                obs.device_buffer_live()
        per_op = (time.perf_counter() - t0) / n
        assert per_op < 20e-6

    def test_disabled_run_records_nothing(self):
        res, tel = traced_run(ghz(8), tel=Telemetry.disabled())
        assert res.metrics_snapshot() == {}
        assert "traffic" not in res.to_dict()
        # ...but the timeline (a core output) is still fully populated.
        assert res.timeline.count(Stage.KERNEL) > 0
        assert res.serial_seconds > 0
