"""The stage program: each op lowered once per fixed-bit pattern.

``remap_gate_for_group`` called once per (op, group) — the per-group
lowering the scheduler used to run — is kept here as the reference the
memoised program must reproduce op for op.
"""

import numpy as np
import pytest

from repro.analysis.audit import predict_traffic
from repro.circuits import Circuit, get_workload, qft
from repro.compile import GateOp, compile_stages
from repro.core import MemQSim, MemQSimConfig, NumpyKernelBackend
from repro.device import DeviceSpec
from repro.device.timeline import Stage
from repro.memory import ChunkLayout
from repro.parallel import CodecWorkerPool, run_equivalence
from repro.pipeline import (
    PermutationStage,
    StageProgram,
    max_group_qubits_for,
    plan_stages,
    remap_gate_for_group,
)
from repro.serve import PlanCache
from repro.statevector import DenseSimulator
from repro.telemetry import Telemetry

from .test_scheduler import build_rig

N, CHUNK_QUBITS, DEVICE_BYTES = 10, 4, 2048


def compiled_gate_stages(circuit, fusion, precision):
    layout = ChunkLayout(circuit.num_qubits, CHUNK_QUBITS,
                         itemsize=8 if precision == "c64" else 16)
    # The same device holds one more group qubit in c64, so the two
    # precisions plan different groupings of the same circuit.
    t_max = max_group_qubits_for(layout, DeviceSpec(memory_bytes=DEVICE_BYTES))
    plan = compile_stages(plan_stages(circuit, layout, t_max), layout,
                          fusion=fusion)
    return layout, [s for s in plan if not isinstance(s, PermutationStage)]


def signature(op):
    gate = op.to_gate()
    body = gate.diag if gate.diag is not None else gate.matrix
    return (gate.name, gate.qubits, gate.diag is not None,
            np.ascontiguousarray(body).tobytes())


def direct_sweep(stage, layout, placement, base_chunk):
    """The reference: lower every op for this one group, no memo."""
    ops, skipped = [], 0
    for op in stage.ops:
        rg = remap_gate_for_group(op.to_gate(), layout, placement, base_chunk)
        if rg is None:
            skipped += 1
        else:
            ops.append(GateOp(rg))
    return ops, skipped


@pytest.mark.parametrize("precision", ["c128", "c64"])
@pytest.mark.parametrize("fusion", [False, True])
@pytest.mark.parametrize("workload", ["qft", "vqe", "supremacy"])
def test_program_equals_direct_remap_for_every_group(workload, fusion,
                                                     precision):
    layout, stages = compiled_gate_stages(get_workload(workload, N), fusion,
                                          precision)
    assert stages
    remaps_paid = remaps_direct = 0
    for stage in stages:
        placement = layout.chunk_groups(stage.group_qubits)
        program = StageProgram(stage, layout, placement)
        for members in placement.groups:
            ops, skipped = program.ops_for(members[0])
            ref_ops, ref_skipped = direct_sweep(stage, layout, placement,
                                                members[0])
            assert skipped == ref_skipped
            assert [signature(o) for o in ops] == \
                [signature(o) for o in ref_ops]
        remaps_paid += program.entries
        remaps_direct += len(stage.ops) * len(placement.groups)
    assert remaps_paid <= remaps_direct
    if workload == "qft":
        # controlled phases reaching past the group: few patterns, many groups
        assert remaps_paid < remaps_direct / 2


def test_entries_follow_each_ops_out_of_group_global_bits():
    layout = ChunkLayout(8, 3)
    circuit = Circuit(8).h(4).cz(0, 7).cp(0.3, 6, 4).cx(4, 1).rzz(0.2, 5, 7)
    (stage,) = compile_stages(plan_stages(circuit, layout, 1), layout).stages
    assert stage.group_qubits == (4,)
    placement = layout.chunk_groups(stage.group_qubits)
    program = StageProgram(stage, layout, placement)
    assert program.entries == 0  # lowered on first use, not up front
    for members in placement.groups:
        program.ops_for(members[0])
    # qubit 4 is in the group: h(4) and cx(4,1) are group-invariant, cz(0,7)
    # and cp(6,4) each see one fixed bit, rzz(5,7) two — over 16 groups.
    assert len(placement.groups) == 16
    assert program.entries == 1 + 2 + 2 + 1 + 4


def test_non_diagonal_ops_lower_once_per_stage():
    layout = ChunkLayout(8, 3)
    circuit = Circuit(8).h(7).cx(7, 0).h(6)
    (stage,) = compile_stages(plan_stages(circuit, layout, 2), layout).stages
    placement = layout.chunk_groups(stage.group_qubits)
    program = StageProgram(stage, layout, placement)
    first = [program.ops_for(m[0])[0] for m in placement.groups]
    assert len(placement.groups) > 1
    assert program.entries == len(stage.ops)
    for ops in first[1:]:
        assert all(a is b for a, b in zip(ops, first[0]))


# (group passes run, all-zero groups skipped, gates_applied,
# gates_skipped_identity, compress calls, decompress calls, kernel calls,
# state digest) of a streamed qft(12) at chunk_qubits=6 / zlib / 4 KiB
# device. The digests were recorded on the commit before the stage program
# existed (per-group lowering) and have not moved since.
# group_passes was re-pinned (384 -> 352, 96 -> 80) when the planner became
# dependency-aware: it packs qft(12) into one stage fewer (12 -> 11 in c128,
# 6 -> 5 in c64).
# Re-pinned again when the sweep became support-aware: from |0...0> the
# all-zero groups of the first stages are never streamed, so 352 -> 223
# passes (129 skipped) in c128 and 80 -> 53 (27 skipped) in c64, and with
# them the per-pass counters: gates_applied 2448 -> 1305, 1248 -> 747,
# 898 -> 542, 454 -> 297; gates_skipped_identity 240 -> 57, 96 -> 24,
# 30 -> 15, 10 -> 5. Codec and kernel calls are pinned since then; at the
# parent they read 706 / 704 / 352 (c128) and 322 / 320 / 80 (c64). Run +
# skipped is the old pass count and the digests are byte-identical.
# Re-pinned once more when a zero-start run began hoisting the circuit's
# swaps into a front permutation: qft(12)'s six trailing swaps were five
# (c128) or two (c64) swap-only stages, every one a full sweep, so
# 223 -> 63 passes in c128 (11 -> 6 stages) and 53 -> 21 in c64, and the
# controlled phases now meet their control bit fixed at 0 by the chunk id:
# gates_applied 1305 -> 90, 747 -> 96, 542 -> 77, 297 -> 45. The digests
# are still the same bytes.
# Re-pinned when window fusion began pricing its windows (launch-cost
# model, up to 5 qubits) instead of capping them at 3: the fused runs
# launch 77 -> 75 (c128) and 45 -> 43 (c64) ops; same digests.
# Re-pinned when a load of the interned zero blob became a fill: codec
# decompress calls 126 -> 63 (c128) and 84 -> 21 (c64), the live members
# of the passes (`test_decompress_calls_are_the_predicted_live_loads`
# derives them from the audit's `predict_traffic`); everything else,
# digests included, is unchanged.
QFT12_PINNED = {
    (False, "c128"): (63, 129, 90, 87, 128, 63, 63,
                      "bdf80128167d75a8fe6a4889ec2572cb"
                      "935cf7cec2c92fc96d536f6fd6b04fa7"),
    (False, "c64"): (21, 27, 96, 48, 86, 21, 21,
                     "16fa466354a071911d66bf021086ba9c"
                     "db4e43d25b664fde81e84147baf3e30e"),
    (True, "c128"): (63, 129, 75, 31, 128, 63, 63,
                     "bdf80128167d75a8fe6a4889ec2572cb"
                     "935cf7cec2c92fc96d536f6fd6b04fa7"),
    (True, "c64"): (21, 27, 43, 5, 86, 21, 21,
                    "16fa466354a071911d66bf021086ba9c"
                    "db4e43d25b664fde81e84147baf3e30e"),
}


def observed(res):
    """The pinned tuple; codec calls are the ledger's over the store's
    lifetime (compress includes ``init_zero_state``'s two), so a run must
    carry a telemetry."""
    stats = res.scheduler_stats
    codec = res.telemetry.traffic.totals()
    # codec calls first: the digest itself loads every chunk
    calls = (codec["codec.raw_in"]["ops"], codec["codec.raw_out"]["ops"],
             res.timeline.count(Stage.KERNEL))
    return (stats.group_passes, stats.group_passes_skipped,
            stats.gates_applied, stats.gates_skipped_identity,
            *calls, res.state_digest())


def qft12_config(fusion, precision):
    return MemQSimConfig(chunk_qubits=6, compressor="zlib",
                         precision=precision, fuse_gates=fusion,
                         device=DeviceSpec(memory_bytes=4096))


@pytest.mark.parametrize("fusion,precision", sorted(QFT12_PINNED))
def test_streamed_qft12_counters_and_digest_pinned(fusion, precision):
    res = MemQSim(qft12_config(fusion, precision),
                  telemetry=Telemetry()).run(qft(12))
    assert observed(res) == QFT12_PINNED[(fusion, precision)]


@pytest.mark.parametrize("fusion,precision", sorted(QFT12_PINNED))
def test_decompress_calls_are_the_predicted_live_loads(fusion, precision):
    """The pinned codec calls are what the plan's support set predicts:
    a compress per member of every pass (plus ``init_zero_state``'s two),
    a decompress per *live* member only — a zero member is filled."""
    res = MemQSim(qft12_config(fusion, precision)).run(qft(12))
    layout = res.store.layout
    predicted = predict_traffic(res.compiled_stages, layout, support={0})
    calls = {edge: sum(row.get(edge, 0) for row in predicted.values())
             // layout.chunk_nbytes
             for edge in ("codec.raw_in", "codec.raw_out")}
    pinned = QFT12_PINNED[(fusion, precision)]
    assert (calls["codec.raw_in"] + 2, calls["codec.raw_out"]) == pinned[4:6]
    assert calls["codec.raw_out"] == res.timeline.count(Stage.DECOMPRESS)
    assert calls["codec.raw_out"] < calls["codec.raw_in"]


def test_parallel_engine_runs_the_same_program():
    cfg = qft12_config(False, "c128")
    rep = run_equivalence(qft(12), cfg, workers=2)
    assert rep.ok and rep.blobs_identical and rep.state_bit_identical
    with CodecWorkerPool(cfg.make_compressor(), workers=1) as lane:
        par = MemQSim(cfg, codec_pool=lane,
                      telemetry=Telemetry()).run(qft(12))
    # the run's codec calls went through the one lane
    assert {r[6] for r in par.timeline.rows if r[0] == Stage.COMPRESS} \
        == {1}
    assert observed(par) == QFT12_PINNED[(False, "c128")]


def test_plan_cache_hit_repeats_counters_and_digest():
    cache = PlanCache()
    runs = [MemQSim(qft12_config(True, "c128"), plan_cache=cache,
                    telemetry=Telemetry()).run(qft(12))
            for _ in range(2)]
    assert cache.stats()["hits"] == 1
    for res in runs:
        assert observed(res) == QFT12_PINNED[(True, "c128")]


def test_one_compiled_stage_under_two_layouts_shares_no_table():
    # The same CompiledGateStage object driven through two chunk sizes: the
    # fixed bits of cz(0,7)/cp(6,1) sit at different chunk-id positions, so
    # a table kept on the stage from the first run would be wrong for the
    # second.
    circuit = Circuit(8).h(0).h(1).h(5).cz(0, 7).cp(0.7, 6, 1).rzz(0.3, 5, 6)
    ref = DenseSimulator().run(circuit).data
    layout3 = ChunkLayout(8, 3)
    (stage,) = compile_stages(plan_stages(circuit, layout3, 1),
                              layout3).stages
    assert stage.group_qubits == (5,)
    for c in (3, 4, 3):
        _lay, store, sched = build_rig(n=8, c=c)
        sched.run([stage])
        assert np.allclose(store.to_statevector(), ref, atol=1e-12)


class TestProgramsKeptWithThePlan:
    """``MemQSim`` keeps each stage's program with the cached plan: a hit
    lowers nothing, a rebind only what it gave a new op."""

    @staticmethod
    def circuit(theta, phi):
        # x and cx are non-diagonal and take no parameter (bound to the op
        # they were lowered from); cz takes none either and sees a fixed
        # bit; ry, rz and cp take one each.
        return (Circuit(8).x(7).cx(7, 0).ry(theta, 1).cz(0, 6)
                .rz(phi, 7).cp(theta, 5, 2).h(6))

    @pytest.fixture
    def lowered(self, monkeypatch):
        import repro.pipeline.scheduler as scheduler

        names = []
        remap = scheduler.remap_gate_for_group

        def counted(gate, *args):
            names.append(gate.name)
            return remap(gate, *args)

        monkeypatch.setattr(scheduler, "remap_gate_for_group", counted)
        return names

    def sim(self):
        return MemQSim(MemQSimConfig(
            chunk_qubits=4, compressor="zlib", enable_permutation_stages=False,
            device=DeviceSpec(memory_bytes=1024)))

    def test_a_hit_lowers_nothing(self, lowered):
        sim, circuit = self.sim(), self.circuit(0.3, 0.8)
        first = sim.run(circuit)
        paid = len(lowered)
        assert paid >= len(circuit)
        again = sim.run(circuit)
        assert again.config_echo["plan_cache"] == "hit"
        assert len(lowered) == paid

        def counts(res):
            hops = [r[0] for r in res.timeline.rows]
            return (res.scheduler_stats, sorted(hops), res.state_digest())
        assert counts(again) == counts(first)
        assert np.allclose(again.statevector(),
                           DenseSimulator().run(circuit).data, atol=1e-12)

    def test_a_rebind_lowers_the_parameterised_ops_again_and_only_those(
            self, lowered):
        sim = self.sim()
        sim.run(self.circuit(0.3, 0.8))
        on_miss = list(lowered)
        assert {"x", "cx", "cz", "h"} <= set(on_miss)
        del lowered[:]
        circuit = self.circuit(1.1, 2.3)
        res = sim.run(circuit)
        assert res.config_echo["plan_cache"] == "rebound"
        assert lowered and set(lowered) == {"ry", "rz", "cp"}
        assert sorted(lowered) == sorted(
            name for name in on_miss if name in ("ry", "rz", "cp"))
        assert np.allclose(res.statevector(),
                           DenseSimulator().run(circuit).data, atol=1e-12)
        # ... and the rebound plan's programs are now the cached ones
        del lowered[:]
        assert sim.run(circuit).config_echo["plan_cache"] == "hit"
        assert not lowered

    def test_previous_hands_over_rows_of_unchanged_ops_only(self):
        layout = ChunkLayout(8, 4)
        stages = plan_stages(self.circuit(0.3, 0.8), layout, 1,
                             enable_permutation_stages=False)
        first = compile_stages(stages, layout,
                               gates=self.circuit(0.3, 0.8).gates)
        second = compile_stages(first.template,
                                gates=self.circuit(1.1, 2.3).gates)
        for a, b in zip(first.stages, second.stages):
            placement = layout.chunk_groups(a.group_qubits)
            before = StageProgram(a, layout, placement)
            for members in placement.groups:
                before.ops_for(members[0])
            after = StageProgram(b, layout, placement, previous=before)
            fresh = StageProgram(b, layout, placement)
            kept = sum(len(memo) for op, _g, _m, memo in after._rows
                       if any(op is old for old in a.ops))
            assert after.entries == kept
            assert kept == sum(
                len(memo) for op, _g, _m, memo in before._rows
                if op.name not in ("ry", "rz", "cp"))
            for members in placement.groups:
                got, skipped = after.ops_for(members[0])
                want, want_skipped = fresh.ops_for(members[0])
                assert skipped == want_skipped
                assert [signature(o) for o in got] == \
                    [signature(o) for o in want]


class TestLaunchesPreparedAtLowering:
    """A lowered entry carries its kernel launch, made for the program's
    buffer width: a cached plan prepares none, a rebound one only its
    rebound rows."""

    circuit = staticmethod(TestProgramsKeptWithThePlan.circuit)
    sim = TestProgramsKeptWithThePlan.sim

    @pytest.fixture
    def prepared(self, monkeypatch):
        import repro.pipeline.scheduler as scheduler

        made = []
        prepare = scheduler.prepare_launch

        def counted(gate, m):
            made.append((gate.name.removesuffix("_restricted"), m))
            return prepare(gate, m)

        monkeypatch.setattr(scheduler, "prepare_launch", counted)
        return made

    def test_a_second_run_on_a_cached_plan_builds_no_launch(self, prepared):
        sim, circuit = self.sim(), self.circuit(0.3, 0.8)
        first = sim.run(circuit)
        built = len(prepared)
        assert built > 0
        again = sim.run(circuit)
        assert again.config_echo["plan_cache"] == "hit"
        assert len(prepared) == built
        assert again.state_digest() == first.state_digest()

    def test_a_rebound_plan_rebuilds_exactly_the_rebound_rows(self, prepared):
        sim = self.sim()
        sim.run(self.circuit(0.3, 0.8))
        on_miss = [name for name, _m in prepared]
        del prepared[:]
        circuit = self.circuit(1.1, 2.3)
        res = sim.run(circuit)
        assert res.config_echo["plan_cache"] == "rebound"
        assert sorted(name for name, _m in prepared) == sorted(
            name for name in on_miss if name in ("ry", "rz", "cp"))
        assert res.state_digest() == MemQSim(sim.config).run(
            circuit).state_digest()

    @pytest.mark.parametrize("fusion", [False, True])
    def test_a_program_serves_launches_of_its_own_width_only(self, fusion):
        circuit = get_workload("vqe", N)
        layout, stages = compiled_gate_stages(circuit, fusion, "c128")
        widths = set()
        for stage in stages:
            placement = layout.chunk_groups(stage.group_qubits)
            program = StageProgram(stage, layout, placement)
            m = CHUNK_QUBITS + len(stage.group_qubits)
            assert program.buffer_qubits == m
            widths.add(m)
            for members in placement.groups:
                ops, _skipped = program.ops_for(members[0])
                assert ops and all(op.launch.m == m for op in ops)
                # the launches are the gates: same buffer, bit for bit
                rng = np.random.default_rng(members[0])
                buf = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
                want = buf.copy()
                for op in ops:
                    op.launch(buf)
                NumpyKernelBackend().apply(want, [op.gate for op in ops])
                assert np.array_equal(buf, want)
                with pytest.raises(ValueError):
                    ops[0].launch(np.zeros(2 << m, dtype=complex))
        assert len(widths) > 1  # the plan has stages of different widths
