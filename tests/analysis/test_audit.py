"""Tests for the plan-vs-actual audit: predictor exactness, failure modes."""

import pytest

from repro.analysis.audit import (
    audit_run,
    predict_access_schedule,
    predict_traffic,
)
from repro.circuits import get_workload
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec
from repro.memory import ChunkAccessRecorder, TrafficLedger
from repro.telemetry import Telemetry


#: every audited run here starts from |0...0>: chunk 0 is its whole support
ZERO_STATE = {0}


def audited_run(n=8, chunk_qubits=4, execution="serial", device_mb=None,
                workers=2, workload="qft", host_store_mb=0.0):
    """Run under the audit contract and return everything the audit needs."""
    tel = Telemetry()
    tel.access = ChunkAccessRecorder()
    kw = {}
    if device_mb is not None:
        kw["device"] = DeviceSpec(memory_bytes=int(device_mb * (1 << 20)))
    if execution == "parallel":
        kw["workers"] = workers
    cfg = MemQSimConfig(
        chunk_qubits=chunk_qubits,
        compressor="zlib",
        cache_chunks=0,
        host_store_mb=host_store_mb,
        **kw,
    )
    res = MemQSim(cfg, telemetry=tel).run(get_workload(workload, n))
    return res.compiled_stages, res.store.layout, tel


class TestPredictor:
    @pytest.mark.parametrize("tiered", [False, True])
    @pytest.mark.parametrize("execution", ["serial", "parallel"])
    def test_schedule_matches_recorded_trace(self, tiered, execution):
        stages, layout, tel = audited_run(
            execution=execution, host_store_mb=0.001 if tiered else 0.0)
        predicted = predict_access_schedule(stages, layout, ZERO_STATE)
        assert predicted == tel.access.trace()

    def test_streaming_run_matches(self):
        # tiny device memory forces multi-stage streaming with real reuse
        stages, layout, tel = audited_run(
            n=9, chunk_qubits=3, device_mb=0.002)
        predicted = predict_access_schedule(stages, layout, ZERO_STATE)
        assert len(predicted) > layout.num_chunks * 2  # several passes
        assert predicted == tel.access.trace()

    def test_permutation_stages_become_barriers(self):
        # (qft's global swaps used to provide them; from |0...0> they are
        # hoisted out of the plan, random's x gates are not)
        stages, layout, tel = audited_run(n=9, chunk_qubits=3,
                                          device_mb=0.002, workload="random")
        predicted = predict_access_schedule(stages, layout)
        barriers = [(si, c, op) for si, c, op in predicted if op == "b"]
        assert barriers, "streaming plan should include permutation stages"
        assert all(c == -1 for _si, c, _op in barriers)
        traffic = predict_traffic(stages, layout)
        for si, _c, _op in barriers:
            assert traffic[si] == {}

    def test_traffic_prediction_shape(self):
        stages, layout, _tel = audited_run()
        traffic = predict_traffic(stages, layout)
        stage_bytes = layout.num_chunks * layout.chunk_nbytes
        gate_rows = [r for r in traffic.values() if r]
        assert gate_rows
        for row in gate_rows:
            assert row == {
                "codec.raw_out": stage_bytes,
                "codec.raw_in": stage_bytes,
                "arena.h2d": stage_bytes,
                "arena.d2h": stage_bytes,
            }

    def test_zero_members_are_not_decoded(self):
        """From |0...0> a pass's members outside the support are filled:
        the arena and the recompress carry every member, the decode only
        the live ones."""
        stages, layout, _tel = audited_run(n=9, chunk_qubits=3,
                                           device_mb=0.002)
        traffic = predict_traffic(stages, layout, support=ZERO_STATE)
        full = predict_traffic(stages, layout)
        moved = 0
        for si, row in traffic.items():
            if not row:
                continue
            assert row["codec.raw_in"] == row["arena.h2d"] == row["arena.d2h"]
            assert 0 <= row["codec.raw_out"] <= row["codec.raw_in"]
            moved += row["codec.raw_in"] - row["codec.raw_out"]
            assert full[si]["codec.raw_out"] == full[si]["codec.raw_in"]
        assert moved > 0

    def test_unknown_stage_type_rejected(self):
        _stages, layout, _tel = audited_run()
        with pytest.raises(TypeError):
            predict_access_schedule([object()], layout)


class TestAuditRun:
    def test_clean_run_passes(self):
        stages, layout, tel = audited_run(n=9, chunk_qubits=3,
                                          device_mb=0.002)
        rep = audit_run(stages, layout, tel.access.trace(), tel.traffic,
                        support=ZERO_STATE)
        assert rep.ok, rep.render()
        assert rep.schedule_ok and rep.traffic_ok and rep.envelope_ok
        assert rep.first_divergence is None
        assert "PASS" in rep.render()

    def test_perturbed_trace_fails_with_divergence(self):
        stages, layout, tel = audited_run()
        trace = tel.access.trace()
        trace[0], trace[-1] = trace[-1], trace[0]
        rep = audit_run(stages, layout, trace, tel.traffic,
                        support=ZERO_STATE)
        assert not rep.ok
        assert not rep.schedule_ok
        assert rep.first_divergence is not None
        assert rep.first_divergence[0] == 0
        assert "FAIL" in rep.render()

    def test_truncated_trace_fails_on_length(self):
        stages, layout, tel = audited_run()
        trace = tel.access.trace()[:-1]
        rep = audit_run(stages, layout, trace, tel.traffic,
                        support=ZERO_STATE)
        assert not rep.schedule_ok
        assert rep.first_divergence[0] == len(trace)

    def test_inflated_ledger_fails_traffic(self):
        stages, layout, tel = audited_run()
        # phantom load the plan does not explain
        with tel.traffic.attributed(0, 0):
            tel.traffic.record("arena", "h2d", 1)
        rep = audit_run(stages, layout, tel.access.trace(), tel.traffic,
                        support=ZERO_STATE)
        assert not rep.traffic_ok
        assert any("arena.h2d" in e for e in rep.errors)

    def test_a_decoded_zero_member_fails_traffic(self):
        # a load of a zero member that reached the codec after all
        stages, layout, tel = audited_run()
        with tel.traffic.attributed(0, 0):
            tel.traffic.record("codec", "raw_out", layout.chunk_nbytes)
        rep = audit_run(stages, layout, tel.access.trace(), tel.traffic,
                        support=ZERO_STATE)
        assert not rep.traffic_ok
        assert any("codec.raw_out" in e for e in rep.errors)

    def test_traffic_on_unplanned_stage_fails(self):
        stages, layout, tel = audited_run()
        with tel.traffic.attributed(len(stages) + 5, 0):
            tel.traffic.record("disk", "write", 10)
        rep = audit_run(stages, layout, tel.access.trace(), tel.traffic,
                        support=ZERO_STATE)
        assert not rep.traffic_ok
        assert any("unplanned stage" in e for e in rep.errors)

    def test_envelope_violation_fails(self):
        stages, layout, tel = audited_run()
        # blow the compressed side far past slack * raw
        raw = tel.traffic.total_bytes("codec", "raw_in")
        with tel.traffic.attributed(0, 0):
            tel.traffic.record("codec", "compressed_out", 2 * raw)
        rep = audit_run(stages, layout, tel.access.trace(), tel.traffic,
                        support=ZERO_STATE)
        assert not rep.envelope_ok
        assert any("envelope" in e for e in rep.errors)

    def test_missing_compressed_bytes_fails(self):
        stages, layout, tel = audited_run()
        led = TrafficLedger()
        # replay only the raw side of the codec into a fresh ledger
        for si, row in tel.traffic.by_stage().items():
            for key, nbytes in row.items():
                if "compressed" in key:
                    continue
                edge, direction = key.split(".")
                with led.attributed(si, 0):
                    led.record(edge, direction, nbytes)
        rep = audit_run(stages, layout, tel.access.trace(), led,
                        support=ZERO_STATE)
        assert not rep.envelope_ok
        assert any("no compressed bytes" in e for e in rep.errors)

    def test_to_dict_round_trips(self):
        import json

        stages, layout, tel = audited_run()
        rep = audit_run(stages, layout, tel.access.trace(), tel.traffic,
                        support=ZERO_STATE)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["ok"] is True
        assert doc["schedule_predicted"] == doc["schedule_measured"]
        assert doc["stages"]


@pytest.mark.parametrize("workload", ["qft", "ghz", "vqe"])
@pytest.mark.parametrize("host_store_mb", [0.0, 0.001])
@pytest.mark.parametrize("execution", ["serial", "parallel"])
def test_audit_predicts_the_decodes_from_the_support(workload, host_store_mb,
                                                     execution):
    """From |0...0>, in RAM and tiered, inline and on lanes: the audit
    passes, so ``codec.raw_out`` matched per stage and per group, and it
    is below ``codec.raw_in`` by the zero members' bytes."""
    stages, layout, tel = audited_run(
        n=10, device_mb=0.002, execution=execution,
        workload=workload, host_store_mb=host_store_mb)
    rep = audit_run(stages, layout, tel.access.trace(), tel.traffic,
                    support=ZERO_STATE)
    assert rep.ok, rep.render()
    predicted = predict_traffic(stages, layout, support=ZERO_STATE)
    by_stage = tel.traffic.by_stage()
    for si, row in predicted.items():
        assert by_stage.get(si, {}).get("codec.raw_out", 0) \
            == row.get("codec.raw_out", 0)
    assert 0 < rep.raw_out < rep.raw_in


class TestKernelPrediction:
    """The model's kernel seconds per stage beside the timeline's: a stage
    off by more than 2x is flagged, never failed."""

    def timeline(self, *seconds):
        from repro.device.timeline import Stage, Timeline

        tl = Timeline()
        tl.record(Stage.COMPRESS, 0.0, 9.0, 0, 0, 1)  # not a kernel row
        for s in seconds:
            tl.record(Stage.KERNEL, 0.0, s, 0, -1, 1)
        return tl

    PASSES = [("pass", 0, 0, (0, 1)), ("barrier", 1, -1, ()),
              ("pass", 2, 0, (0, 1)), ("pass", 2, 1, (2, 3))]

    def test_rows_per_gate_stage(self):
        from repro.analysis.audit import compare_kernel_seconds

        rows = compare_kernel_seconds(
            self.PASSES, ((0, 2, 1e-3), (2, 2, 1e-3)),
            self.timeline(1e-3, 1e-3, 5e-3))
        assert [(r["stage"], r["passes"], r["flagged"]) for r in rows] == \
            [(0, 1, False), (2, 2, True)]
        assert rows[1]["predicted_s"] == pytest.approx(2e-3)
        assert rows[1]["ratio"] == pytest.approx(3.0)

    def test_rows_that_do_not_line_up_are_not_compared(self):
        from repro.analysis.audit import compare_kernel_seconds

        assert compare_kernel_seconds(self.PASSES, ((0, 2, 1e-3),),
                                      self.timeline(1e-3)) == []

    def test_a_flag_does_not_fail_the_audit(self):
        tel = Telemetry()
        tel.access = ChunkAccessRecorder()
        res = MemQSim(MemQSimConfig(chunk_qubits=4, compressor="zlib"),
                      telemetry=tel).run(get_workload("qft", 8))
        # a model a thousand times too optimistic
        stages = tuple((si, groups, pass_s * 1e-3) for si, groups, pass_s
                       in res.compile_report.kernel_stages)
        rep = audit_run(res.compiled_stages, res.store.layout,
                        tel.access.trace(), tel.traffic, support=ZERO_STATE,
                        timeline=res.timeline, kernel_stages=stages)
        assert rep.ok and rep.kernel_rows
        assert all(row["flagged"] for row in rep.kernel_rows)
        assert "flagged" in rep.render()
