"""ProgressTracker: exact plan-derived fractions, EWMA rate, ETA."""

from __future__ import annotations

import json

import pytest

from repro.circuits import qft
from repro.core import MemQSim
from repro.telemetry import ProgressTracker, StageProgress, Telemetry


class _GateStage:
    """Duck-typed CompiledGateStage: group_qubits + ops."""

    def __init__(self, group_qubits, n_ops):
        self.group_qubits = tuple(group_qubits)
        self.ops = [object()] * n_ops


class _PermStage:
    perm = (1, 0)


class _Layout:
    def __init__(self, num_chunks):
        self.num_chunks = num_chunks


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def test_from_plan_weights_are_exact():
    # 8 chunks; gate stage grouping 1 target qubit -> 4 groups of 2 chunks
    stages = [_GateStage([5], 3), _PermStage(), _GateStage([], 1)]
    tracker = ProgressTracker.from_plan(stages, _Layout(8))
    gate, perm, solo = tracker.stages
    assert (gate.kind, gate.groups, gate.unit_weight) == ("gate", 4, 2 * 4)
    assert (perm.kind, perm.groups, perm.unit_weight) == ("permutation", 1, 8)
    assert (solo.kind, solo.groups, solo.unit_weight) == ("gate", 8, 1 * 2)
    assert tracker.total_units == 4 * 8 + 8 + 8 * 2
    assert tracker.groups_total == 4 + 1 + 8


def test_fraction_is_exact_integer_ratio_and_finishes_at_one():
    stages = [_GateStage([5], 2), _GateStage([4, 3], 0)]
    tracker = ProgressTracker.from_plan(stages, _Layout(8), clock=FakeClock())
    tracker.start()
    assert tracker.fraction == 0.0
    total = tracker.total_units
    for _ in range(tracker.stages[0].groups):
        tracker.group_done(0)
    assert tracker.fraction == tracker.stages[0].total_units / total
    for _ in range(tracker.stages[1].groups):
        tracker.group_done(1)
    assert tracker.fraction == 1.0  # exactly, no float drift
    assert tracker.done_units == tracker.total_units


def test_over_credit_is_clamped():
    tracker = ProgressTracker.from_plan([_GateStage([5], 1)], _Layout(4),
                                        clock=FakeClock())
    tracker.start()
    tracker.group_done(0, count=99)  # plan only has 2 groups
    assert tracker.fraction == 1.0
    tracker.group_done(0)  # further credit: no-op, stays exactly 1.0
    assert tracker.fraction == 1.0
    assert tracker.groups_done == tracker.groups_total == 2
    # out-of-range stage indices are ignored, not crashes
    tracker.group_done(7)
    tracker.stage_started(7)
    assert tracker.fraction == 1.0


def test_eta_from_ewma_rate_with_fake_clock():
    clock = FakeClock()
    # one stage, 4 groups, weight 10 -> 40 units total
    tracker = ProgressTracker.from_plan([_GateStage([5], 4)], _Layout(8),
                                        clock=clock)
    tracker.start()
    assert tracker.eta_seconds() is None  # no rate measured yet
    clock.t = 1.0
    tracker.group_done(0)  # 10 units in 1 s -> rate 10 units/s
    assert tracker.rate_ewma == pytest.approx(10.0)
    assert tracker.eta_seconds() == pytest.approx(30 / 10.0)
    clock.t = 2.0
    tracker.group_done(0)  # same pace: EWMA stays 10
    assert tracker.rate_ewma == pytest.approx(10.0)
    assert tracker.eta_seconds() == pytest.approx(2.0)
    clock.t = 4.0
    tracker.group_done(0)  # slower pass (5 units/s) drags the EWMA down
    assert tracker.rate_ewma == pytest.approx(0.2 * 5.0 + 0.8 * 10.0)
    clock.t = 5.0
    tracker.group_done(0)
    assert tracker.eta_seconds() == 0.0  # nothing remaining
    assert tracker.stages[0].rate_ewma is not None  # per-stage EWMA too


def test_snapshot_payload_shape():
    clock = FakeClock()
    tracker = ProgressTracker.from_plan(
        [_GateStage([5], 1), _PermStage()], _Layout(4),
        run_id="abc123", clock=clock)
    tracker.start()
    tracker.stage_started(0)
    clock.t = 0.5
    tracker.group_done(0)
    snap = tracker.snapshot()
    assert snap["run_id"] == "abc123"
    assert 0 < snap["fraction"] < 1
    assert snap["done_units"] == tracker.stages[0].unit_weight
    assert snap["current_stage"]["index"] == 0
    assert snap["stages_done"] == 0 and snap["stages_total"] == 2
    assert not snap["finished"]
    json.dumps(snap)  # must be JSON-serializable as-is
    clock.t = 1.0
    tracker.group_done(0)
    tracker.group_done(1)
    tracker.finish()
    snap = tracker.snapshot()
    assert snap["fraction"] == 1.0 and snap["finished"]
    assert snap["eta_seconds"] == 0.0
    assert snap["elapsed_seconds"] == pytest.approx(1.0)


def test_empty_plan_reports_done_only_after_finish():
    tracker = ProgressTracker([], clock=FakeClock())
    tracker.start()
    assert tracker.fraction == 0.0
    tracker.finish()
    assert tracker.fraction == 1.0


def test_run_attaches_tracker_and_finishes_at_exactly_one(tight_config):
    tel = Telemetry()
    res = MemQSim(tight_config, telemetry=tel).run(qft(8))
    assert isinstance(tel.progress, ProgressTracker)
    assert tel.progress.fraction == 1.0
    assert tel.progress.finished
    assert tel.progress.groups_done == tel.progress.groups_total
    # the run id threads through tracker, result object and result dict
    assert res.run_id and tel.progress.run_id == res.run_id
    assert res.to_dict()["run_id"] == res.run_id


def test_disabled_run_keeps_null_progress(tight_config):
    from repro.telemetry import NULL_TELEMETRY

    res = MemQSim(tight_config, telemetry=NULL_TELEMETRY).run(qft(8))
    assert not hasattr(NULL_TELEMETRY, "progress")  # no sink, no stand-in
    assert res.run_id  # ids are assigned even without telemetry


def test_null_tracker_is_free():
    """Until a run attaches a tracker there is none: the loop's observer
    reaches the other sinks without it and attaches none."""
    tel = Telemetry()
    assert tel.progress is None
    obs = tel.observer()
    with obs.stage(0, "permutation"):
        obs.barrier(0)
    with obs.group_pass(1, 0, (0, 1), 64):
        obs.device_buffer_live()
    assert [sp.name for sp in tel.tracer.spans] == ["stage", "group_pass"]
    assert [ev.kind for ev in tel.bus.snapshot()] == [
        "stage.start", "stage.end", "group"]
    assert tel.progress is None


def test_stage_progress_ledger():
    st = StageProgress(2, "gate", groups=3, unit_weight=7)
    assert st.total_units == 21 and st.done_units == 0
    st.groups_done = 2
    assert st.done_units == 14
    d = st.to_dict()
    assert d["index"] == 2 and d["kind"] == "gate" and d["groups"] == 3
