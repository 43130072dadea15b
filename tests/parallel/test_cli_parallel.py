"""CLI wiring for the parallel subsystem: --workers."""

import json

import pytest

from repro.cli import build_parser, main


class TestParserDefaults:
    def test_run_parallel_defaults(self):
        args = build_parser().parse_args(["run", "qft"])
        assert args.workers == 0  # 0 = auto
        assert not hasattr(args, "execution")

    def test_trace_has_parallel_flags(self):
        args = build_parser().parse_args(
            ["trace", "qft", "--workers", "2"])
        assert args.workers == 2

    def test_execution_choices(self):
        """There is one engine; --workers sizes its codec lane. The flag
        is gone from every subcommand that had it."""
        for cmd in (["run", "qft"], ["trace", "qft"], ["report", "qft"],
                    ["serve"], ["submit", "qft"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(cmd + ["--execution", "serial"])


class TestRunCommand:
    def test_run_with_workers(self, capsys):
        rc = main(["run", "ghz", "-n", "8", "--chunk-qubits", "4",
                   "--compressor", "zlib", "--workers", "2"])
        assert rc == 0
        assert "MEMQSim result" in capsys.readouterr().out

    @staticmethod
    def lanes(payload):
        """Codec lanes the run's ledger saw bytes from (0 = inline)."""
        return set(payload["traffic"]["by_worker"]) - {"0"}

    def test_json_echoes_resolved_config(self, capsys, tmp_path):
        metrics = tmp_path / "m.json"
        rc = main(["run", "ghz", "-n", "8", "--chunk-qubits", "4",
                   "--compressor", "zlib", "--workers", "2",
                   "--json", "--metrics-out", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        echo = payload["config_echo"]
        assert echo["workers"] == 2
        assert "execution" not in echo
        # the codec ran on the lanes (which of the two took jobs varies)
        assert self.lanes(payload) and self.lanes(payload) <= {"1", "2"}
        assert echo["compressor"] == "zlib"

    def test_json_serial_echo(self, capsys, tmp_path):
        metrics = tmp_path / "m.json"
        rc = main(["run", "ghz", "-n", "8", "--chunk-qubits", "4",
                   "--compressor", "zlib", "--workers", "1", "--json",
                   "--metrics-out", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        echo = payload["config_echo"]
        assert echo["workers"] == 1
        assert self.lanes(payload) == set()  # no pool: the codec ran inline

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("tier", [[], ["--host-store-mb", "0.001"]],
                             ids=["ram", "tiered"])
    def test_audit_balances_for_any_worker_count(self, capsys, workers,
                                                 tier):
        """Per stage, per group pass and per worker, to the byte: a write
        the lane settles late is booked to the pass that issued it."""
        rc = main(["audit", "qft", "-n", "10", "--chunk-qubits", "4",
                   "--device-mb", "0.002", "--compressor", "zlib",
                   "--workers", workers, "--json"] + tier)
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        assert rc == 0 and report["ok"], report["errors"]

    def test_trace_with_workers(self, tmp_path, capsys):
        out = tmp_path / "t.trace.json"
        rc = main(["trace", "ghz", "-n", "8", "--chunk-qubits", "4",
                   "--compressor", "zlib", "--workers", "2",
                   "--trace-out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
