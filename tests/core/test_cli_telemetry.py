"""CLI telemetry flags: --trace-out/--metrics-out/--json and `trace`."""

import json

import pytest

from repro.cli import build_parser, main

RUN = ["run", "ghz", "-n", "8", "--chunk-qubits", "4", "--compressor", "zlib"]


class TestParser:
    def test_run_accepts_telemetry_flags(self):
        args = build_parser().parse_args(
            RUN + ["--trace-out", "t.json", "--metrics-out", "m.json",
                   "--log-level", "debug"])
        assert args.trace_out == "t.json"
        assert args.metrics_out == "m.json"
        assert args.log_level == "debug"

    def test_json_flag_bare_means_stdout(self):
        args = build_parser().parse_args(RUN + ["--json"])
        assert args.json == "-"
        args = build_parser().parse_args(RUN + ["--json", "out.json"])
        assert args.json == "out.json"

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "qft"])
        assert args.workload == "qft"
        assert args.qubits == 12
        assert args.trace_out is None  # filled in at run time


class TestRunExports:
    def test_trace_and_metrics_out(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        assert main(RUN + ["--trace-out", str(trace),
                           "--metrics-out", str(metrics)]) == 0
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        for stage in ("decompress", "h2d", "kernel", "d2h", "compress"):
            assert stage in names
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["pool.acquire.count"] > 0
        # the codec ratio is read off the run's rows (the ledger)
        assert snap["derived"]["codec.compression_ratio"] > 0
        out = capsys.readouterr().out
        assert str(trace) in out and str(metrics) in out

    def test_jsonl_out(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        assert main(RUN + ["--jsonl-out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert len(lines) > 5
        assert all("name" in json.loads(line) for line in lines)

    def test_json_stdout_is_pure(self, capsys):
        assert main(RUN + ["--shots", "20", "--compare-dense", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)  # nothing but the document on stdout
        assert payload["num_qubits"] == 8
        assert payload["counts"]
        assert payload["fidelity_vs_dense"] == pytest.approx(1.0)
        assert payload["stage_event_counts"]["kernel"] >= 1

    def test_json_to_file_keeps_report(self, tmp_path, capsys):
        path = tmp_path / "res.json"
        assert main(RUN + ["--json", str(path)]) == 0
        assert json.loads(path.read_text())["num_qubits"] == 8
        assert "MEMQSim result" in capsys.readouterr().out

    def test_json_includes_metrics_when_tracing(self, capsys, tmp_path):
        assert main(RUN + ["--trace-out", str(tmp_path / "t.json"),
                           "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["counters"]["pool.acquire.count"] > 0
        assert payload["traffic"]["totals"]["arena.h2d"]["bytes"] > 0


class TestTraceCommand:
    def test_default_output_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "ghz", "-n", "8", "--chunk-qubits", "4",
                     "--compressor", "zlib"]) == 0
        doc = json.loads((tmp_path / "ghz.trace.json").read_text())
        assert doc["traceEvents"]
        out = capsys.readouterr().out
        assert "ghz.trace.json" in out
        assert "perfetto" in out.lower() or "chrome://tracing" in out

    def test_explicit_outputs_and_summary(self, tmp_path, capsys):
        trace = tmp_path / "q.trace.json"
        metrics = tmp_path / "q.metrics.json"
        assert main(["trace", "qft", "-n", "8", "--chunk-qubits", "4",
                     "--compressor", "zlib", "--trace-out", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        assert trace.exists() and metrics.exists()
        out = capsys.readouterr().out
        # span summary table names the pipeline hops
        assert "h2d" in out and "kernel" in out
