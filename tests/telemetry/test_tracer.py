"""Tracer unit tests: nesting, attributes, export formats."""

import json
import threading
import time

import pytest

from repro.telemetry import Span, Tracer


class TestSpanRecording:
    def test_span_context_measures_duration(self):
        tr = Tracer()
        with tr.span("work") as sp:
            time.sleep(0.002)
        assert len(tr) == 1
        assert sp.duration >= 0.002
        assert tr.spans[0] is sp

    def test_span_attributes(self):
        tr = Tracer()
        with tr.span("h2d", chunk=3, nbytes=65536):
            pass
        sp = tr.spans[0]
        assert sp.args == {"chunk": 3, "nbytes": 65536}

    def test_nesting_depth_and_parent(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("mid"):
                with tr.span("inner"):
                    pass
        by_name = {s.name: s for s in tr.spans}
        assert by_name["outer"].depth == 0
        assert by_name["outer"].parent is None
        assert by_name["mid"].depth == 1
        assert by_name["mid"].parent == "outer"
        assert by_name["inner"].depth == 2
        assert by_name["inner"].parent == "mid"

    def test_close_order_is_innermost_first(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        assert [s.name for s in tr.spans] == ["inner", "outer"]

    def test_record_already_measured(self):
        tr = Tracer()
        sp = tr.record("kernel", 0.25, chunk=1)
        assert sp.duration == 0.25
        assert sp.start >= 0.0
        assert tr.spans == [sp]

    def test_record_inherits_open_span_as_parent(self):
        tr = Tracer()
        with tr.span("group_pass"):
            sp = tr.record("d2h", 0.001)
        assert sp.parent == "group_pass"
        assert sp.depth == 1

    def test_find_and_total_seconds(self):
        tr = Tracer()
        tr.record("a", 0.5)
        tr.record("b", 0.25)
        tr.record("a", 0.5)
        assert len(tr.find("a")) == 2
        assert tr.total_seconds("a") == pytest.approx(1.0)
        assert tr.total_seconds() == pytest.approx(1.25)

    def test_clear(self):
        tr = Tracer()
        tr.record("a", 0.1)
        tr.clear()
        assert len(tr) == 0

    def test_threads_get_distinct_tids(self):
        tr = Tracer()
        # Hold all workers alive at once: thread idents are reused after a
        # thread exits, which would collapse tids.
        barrier = threading.Barrier(3)

        def work():
            with tr.span("t"):
                barrier.wait(timeout=5)

        threads = [threading.Thread(target=work) for _ in range(3)]
        with tr.span("main"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        tids = {s.tid for s in tr.spans}
        assert len(tids) == 4  # main + 3 workers


class TestChromeTraceExport:
    def make_tracer(self):
        tr = Tracer(process_name="memqsim-test")
        with tr.span("outer", cat="pipeline"):
            tr.record("inner", 0.002, chunk=0)
        return tr

    def test_schema_fields(self):
        doc = self.make_tracer().to_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        meta = events[0]
        assert meta["ph"] == "M"
        assert meta["args"]["name"] == "memqsim-test"
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2
        for e in complete:
            assert isinstance(e["ts"], float)
            assert isinstance(e["dur"], float)
            assert e["ts"] >= 0.0
            assert e["dur"] >= 0.0
            assert e["pid"] == 1
            assert "args" in e and "name" in e

    def test_events_sorted_by_start(self):
        doc = self.make_tracer().to_chrome_trace()
        starts = [e["ts"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert starts == sorted(starts)

    def test_timestamps_are_microseconds(self):
        tr = Tracer()
        tr.record("x", 0.5)  # 0.5 s = 5e5 us
        [e] = [e for e in tr.to_chrome_trace()["traceEvents"] if e["ph"] == "X"]
        assert e["dur"] == pytest.approx(5e5)

    def test_write_roundtrip(self, tmp_path):
        path = tmp_path / "t.json"
        nb = self.make_tracer().write_chrome_trace(str(path))
        assert nb == path.stat().st_size
        doc = json.loads(path.read_text())
        assert {e["name"] for e in doc["traceEvents"]} >= {"outer", "inner"}


class TestJsonlExport:
    def test_one_object_per_span(self, tmp_path):
        tr = Tracer()
        with tr.span("a", k=1):
            pass
        tr.record("b", 0.001)
        path = tmp_path / "spans.jsonl"
        n = tr.write_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert n == len(lines) == 2
        objs = [json.loads(line) for line in lines]
        assert {o["name"] for o in objs} == {"a", "b"}
        for o in objs:
            assert set(o) == {"name", "start", "duration", "tid", "depth",
                              "parent", "args"}


class TestSummary:
    def test_aggregates_per_name(self):
        tr = Tracer()
        tr.record("h2d", 0.010)
        tr.record("h2d", 0.020)
        tr.record("kernel", 0.005)
        text = tr.summary()
        assert "h2d" in text and "kernel" in text
        # h2d total (30ms) sorts above kernel (5ms)
        assert text.index("h2d") < text.index("kernel")
