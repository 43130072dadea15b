"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_no_fusion_width_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "qft", "--max-fuse-qubits", "4"])
        assert "unrecognized arguments: --max-fuse-qubits" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "trace", "report"])
    def test_no_transfer_flag(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "qft", "--transfer", "sync"])
        assert "unrecognized arguments: --transfer" \
            in capsys.readouterr().err

    def test_precision_is_one_of_three_modes(self, capsys):
        for mode in ("c128", "c64", "mixed"):
            assert build_parser().parse_args(
                ["run", "qft", "--precision", mode]).precision == mode
        with pytest.raises(SystemExit) as err:
            main(["run", "qft", "-n", "4", "--precision", "auto"])
        assert err.value.code == 2
        assert "invalid choice: 'auto'" in capsys.readouterr().err

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "qft"])
        assert args.workload == "qft"
        assert args.qubits == 12
        assert args.compressor == "szlike"


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "qft" in out and "grover" in out

    def test_compressors_list(self, capsys):
        assert main(["compressors"]) == 0
        out = capsys.readouterr().out
        assert "szlike" in out and "lossless" in out

    def test_compressors_evaluate(self, capsys):
        assert main(["compressors", "--evaluate", "ghz", "-n", "8"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out or "x" in out

    def test_run_workload(self, capsys):
        rc = main([
            "run", "ghz", "-n", "8", "--chunk-qubits", "4",
            "--device-mb", "0.01", "--shots", "50", "--seed", "3",
            "--compare-dense",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MEMQSim result" in out
        assert "fidelity vs dense" in out
        assert "top outcomes" in out

    def test_run_with_checkpoint_roundtrip(self, tmp_path, capsys):
        ck = tmp_path / "state.mqs"
        assert main([
            "run", "ghz", "-n", "8", "--chunk-qubits", "4",
            "--compressor", "zlib", "--save-state", str(ck),
        ]) == 0
        assert ck.exists()
        assert main([
            "run", "ghz", "-n", "8", "--chunk-qubits", "4",
            "--compressor", "zlib", "--checkpoint", str(ck),
        ]) == 0
        # ghz twice: h0 + cx chain applied twice returns near |0..0>... not
        # exactly; just confirm it ran and reported.
        assert "MEMQSim result" in capsys.readouterr().out

    def test_run_qasm_file(self, tmp_path, capsys):
        qasm = tmp_path / "c.qasm"
        qasm.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
            "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
        )
        assert main(["run", "--qasm", str(qasm), "--compressor", "zlib",
                     "--chunk-qubits", "2", "--device-mb", "0.01"]) == 0
        assert "MEMQSim result" in capsys.readouterr().out

    @pytest.mark.parametrize("bound", ["inf", "nan", "0"])
    def test_run_rejects_a_nonfinite_error_bound(self, bound):
        with pytest.raises(SystemExit, match="error_bound must be a finite"):
            main(["run", "ghz", "-n", "6", "--error-bound", bound])

    def test_run_without_workload_errors(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_plan(self, capsys):
        assert main(["plan", "qft", "-n", "10", "--chunk-qubits", "5"]) == 0
        out = capsys.readouterr().out
        assert "stages" in out and "group passes" in out

    def test_plan_shows_the_qubit_map(self, capsys):
        assert main(["plan", "ghz", "-n", "10", "--chunk-qubits", "6",
                     "--max-group", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # A tie in chunk loads keeps the forward plan ...
        assert lines[1] == ("  plan: forward, written; chunk loads from "
                            "|0...0>: forward written 46 *, backward written 46")
        # ... where logical qubit 5 leaves for global position 6, 6 comes
        # local ...
        assert lines[2].endswith("relocate: q5→g6 q6→l5")
        # ... and the plan ends by bringing everybody home.
        assert "restore:" in lines[-1] and "PermutationStage" in lines[-1]

    def test_plan_labels_a_backward_plans_moves_front(self, capsys):
        assert main(["plan", "supremacy", "-n", "14", "--chunk-qubits", "10",
                     "--max-group", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == ("  plan: backward, written; chunk loads from "
                            "|0...0>: forward written 78, backward written 30 *")
        # Qubits move at the front of a stage and nothing is restored.
        assert any("front: " in line for line in lines)
        assert not any("restore:" in line for line in lines)
        assert sum("GateStage" in line for line in lines) == 4

    def test_audit_reconciles_a_backward_plan(self, capsys):
        import json

        # A 16 KiB device holds groups of one global qubit beside the chunk.
        assert main(["plan", "supremacy", "-n", "12", "--chunk-qubits", "8",
                     "--max-group", "1"]) == 0
        assert "plan: backward" in capsys.readouterr().out
        rc = main(["audit", "supremacy", "-n", "12", "--chunk-qubits", "8",
                   "--device-mb", "0.016", "--compressor", "zlib", "--json"])
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert rc == 0 and doc["ok"]
        assert doc["passes_predicted"] == 17
        assert doc["schedule_predicted"] == doc["schedule_measured"]

    def test_plan_shows_live_groups(self, capsys):
        assert main(["plan", "qft", "-n", "10", "--chunk-qubits", "5",
                     "--max-group", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # What a run from |0...0> plans: the 5 swaps are a front permutation
        # (as written: 9 stages, 95 of 144 passes run), leaving 5 stages of
        # 16 groups; support doubles per stage.
        assert lines[0].endswith("80 group passes: 31 run from |0...0>, "
                                 "49 all-zero groups skipped")
        assert lines[1].startswith("  plan: forward, hoisted;")
        assert "5 of the circuit's 60 gates are swaps" in lines[2]
        assert "front permutation [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]" in lines[2]
        stages = [line for line in lines if "GateStage" in line]
        assert len(stages) == 5
        assert [line.split("live ")[1].split(" groups")[0]
                for line in stages] == \
            ["1 / 16", "2 / 16", "4 / 16", "8 / 16", "16 / 16"]

    def test_run_reports_passes_run_and_skipped(self, tmp_path, capsys):
        import json

        argv = ["qft", "-n", "10", "--chunk-qubits", "5", "--device-mb",
                "0.002", "--compressor", "zlib"]
        assert main(["run"] + argv + ["--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["plan"]["group_passes"] == 31
        assert doc["plan"]["group_passes_skipped"] == 49
        assert doc["scheduler"]["group_passes"] == 31
        assert main(["run"] + argv) == 0
        assert "31 group passes run, 49 all-zero groups skipped" \
            in capsys.readouterr().out
        html = tmp_path / "r.html"
        assert main(["report"] + argv + ["-o", str(html)]) == 0
        assert "31 run, 49 all-zero skipped" in html.read_text()

    @pytest.mark.parametrize("flags, compressor, fused, derived", [
        ([], "zlib", False, True),            # unset: follows the codec
        ([], "szlike", True, True),
        (["--fusion"], "zlib", True, False),  # named: honoured
        (["--no-fusion"], "szlike", False, False),
    ])
    def test_fusion_flag_is_unset_by_default(self, capsys, flags, compressor,
                                             fused, derived):
        import json

        for command in ("run", "trace"):
            assert build_parser().parse_args(
                [command, "qft"]).fusion is None
        assert build_parser().parse_args(["submit", "qft"]).fusion is None
        args = build_parser().parse_args(["run", "qft"] + flags)
        assert (args.fusion is None) is derived
        assert main(["run", "qft", "-n", "8", "--chunk-qubits", "4",
                     "--compressor", compressor, "--json"] + flags) == 0
        out = capsys.readouterr().out
        echo = json.loads(out[out.index("{"):])["config_echo"]
        assert echo["fuse_gates"] is fused and echo["fusion"] is fused
        assert "decisions" not in echo

    def test_audit_json_carries_the_predicted_pass_count(self, capsys):
        import json

        rc = main(["audit", "qft", "-n", "10", "--chunk-qubits", "5",
                   "--device-mb", "0.002", "--compressor", "zlib", "--json"])
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert rc == 0 and doc["ok"]
        assert doc["passes_predicted"] == 31
        # each pass reads and writes its two members
        assert doc["schedule_predicted"] == doc["schedule_measured"] == 4 * 31
        # the model's kernel seconds beside the measured ones, every gate
        # stage that ran a pass, whatever they say
        assert sum(row["passes"] for row in doc["kernel"]) == 31
        assert all(row["predicted_s"] > 0 and row["measured_s"] > 0
                   for row in doc["kernel"])


class TestMemTraceFile:
    ARGV = ["qft", "-n", "8", "--chunk-qubits", "4", "--device-mb", "0.002",
            "--compressor", "zlib"]

    def test_run_writes_the_schedule_and_memtrace_reads_it(self, tmp_path,
                                                            capsys):
        import json

        from repro.analysis.memtrace import read_trace
        from repro.analysis.audit import predict_access_schedule
        from repro.circuits import qft
        from repro.core import MemQSim, MemQSimConfig
        from repro.device import DeviceSpec

        path = tmp_path / "run.trace.jsonl"
        assert main(["run"] + self.ARGV + ["--mem-trace-out", str(path)]) == 0
        assert "access trace written" in capsys.readouterr().out
        cfg = MemQSimConfig(chunk_qubits=4, compressor="zlib",
                            device=DeviceSpec(memory_bytes=2097))
        res = MemQSim(cfg).run(qft(8))
        assert read_trace(path) == predict_access_schedule(
            res.compiled_stages, res.store.layout, {0})
        assert main(["memtrace", "qft", "--trace-in", str(path),
                     "--json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["accesses"] == len(read_trace(path))

    @pytest.mark.parametrize("bad, why", [
        ("{not json", "Expecting"),
        ("7", "expected an object, got int"),
        ('{"chunk": 1, "op": "r"}', "missing key 'stage'"),
        ('{"stage": 0, "chunk": 1, "op": "q"}', "unknown access op 'q'"),
    ], ids=["not-json", "not-an-object", "missing-key", "unknown-op"])
    def test_a_malformed_trace_exits_naming_file_and_line(self, tmp_path,
                                                          bad, why):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"stage": 0, "chunk": 1, "op": "r"}\n' + bad + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["memtrace", "qft", "--trace-in", str(path)])
        msg = exc.value.code
        assert isinstance(msg, str)  # argparse-style: printed, exit 1
        assert msg.startswith(f"memtrace: {path} line 2: ")
        assert why in msg
