"""Unit tests for the compile layer's lowering passes.

Covers 1q-run folding, diagonal-run merging, window fusion (a cost that
reproduces the old width cap, the greedy partition it made, and densify
gating), 1:1 lowering when fusion is off, stage-boundary
preservation through ``compile_stages``, and numerical agreement of every
compiled batch with the uncompiled gate sequence.
"""

import inspect

import numpy as np
import pytest

from repro.circuits import Circuit, get_workload
from repro.circuits.gates import make_diagonal_gate, make_gate
from repro.compile import (
    MAX_WINDOW_QUBITS,
    CompiledGateStage,
    CompileReport,
    FusedOp,
    GateOp,
    as_ops,
    compile_gates,
    compile_stage,
    compile_stages,
)
from repro.circuits.gates import gate_is_diagonal
from repro.compile import passes
from repro.compile.template import GateRecipe
from repro.memory import ChunkLayout
from repro.pipeline import plan_stages
from repro.pipeline.stages import GateStage, PermutationStage
from tests.compile.caps import window_cap

def _on_gates(run_pass):
    """A pass as gates -> ops: lower each gate to its leaf recipe, let the
    pass decide, bind the recipes it returns to the gates they came from."""
    def compiled(ops, *args, **kwargs):
        leaves = [GateRecipe(op, -1, gate_is_diagonal(op.to_gate()))
                  for op in ops]
        return [r.op(None) for r in run_pass(leaves, *args, **kwargs)]
    return compiled


fold_1q_runs = _on_gates(passes.fold_1q_runs)
merge_diagonal_runs = _on_gates(passes.merge_diagonal_runs)
fuse_windows = _on_gates(passes.fuse_windows)


def random_state(n, seed=7):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


def apply_all(buf, items):
    """Apply gates or ops through the production kernels."""
    from repro.statevector.kernels import apply_circuit_gate

    for it in items:
        apply_circuit_gate(buf, it.to_gate() if hasattr(it, "to_gate") else it)


def assert_same_effect(gates, ops, n, atol=1e-10):
    ref = random_state(n)
    got = ref.copy()
    apply_all(ref, gates)
    apply_all(got, ops)
    np.testing.assert_allclose(got, ref, atol=atol)


class TestFold1qRuns:
    def test_dense_run_folds_to_one_matrix(self):
        c = Circuit(1).h(0).t(0).s(0).h(0)
        ops = fold_1q_runs(as_ops(c.gates))
        assert len(ops) == 1
        assert isinstance(ops[0], FusedOp)
        assert ops[0].diag is None
        assert_same_effect(c.gates, ops, 1)

    def test_all_diagonal_run_stays_diagonal(self):
        c = Circuit(1).t(0).s(0).z(0)
        ops = fold_1q_runs(as_ops(c.gates))
        assert len(ops) == 1
        assert ops[0].diag is not None
        assert_same_effect(c.gates, ops, 1)

    def test_runs_split_by_intervening_two_qubit_gate(self):
        c = Circuit(2).h(0).cx(0, 1).h(0)
        ops = fold_1q_runs(as_ops(c.gates))
        assert len(ops) == 3
        assert_same_effect(c.gates, ops, 2)

    def test_single_gate_passes_through_unwrapped(self):
        c = Circuit(1).h(0)
        ops = fold_1q_runs(as_ops(c.gates))
        assert len(ops) == 1
        assert isinstance(ops[0], GateOp)

    def test_can_densify_gate_blocks_dense_fold(self):
        c = Circuit(1).h(0).t(0)
        ops = fold_1q_runs(as_ops(c.gates), can_densify=lambda qs: False)
        assert len(ops) == 2  # mixed run on a non-densifiable qubit: as-is
        assert_same_effect(c.gates, ops, 1)

    def test_non_densifiable_all_diag_run_still_merges(self):
        c = Circuit(1).t(0).s(0)
        ops = fold_1q_runs(as_ops(c.gates), can_densify=lambda qs: False)
        assert len(ops) == 1
        assert ops[0].diag is not None


class TestMergeDiagonalRuns:
    def test_merges_consecutive_diagonals_across_qubits(self):
        c = Circuit(3).t(0).cz(0, 1).cp(np.pi / 3, 1, 2)
        ops = merge_diagonal_runs(as_ops(c.gates))
        assert len(ops) == 1
        assert isinstance(ops[0], FusedOp)
        assert ops[0].qubits == (0, 1, 2)
        assert_same_effect(c.gates, ops, 3)

    def test_run_broken_by_dense_gate(self):
        c = Circuit(2).t(0).h(0).cz(0, 1)
        ops = merge_diagonal_runs(as_ops(c.gates))
        assert len(ops) == 3
        assert_same_effect(c.gates, ops, 2)

    def test_width_cap_splits_run(self):
        c = Circuit(4).cz(0, 1).cz(2, 3)
        ops = merge_diagonal_runs(as_ops(c.gates), max_diag_qubits=2)
        assert len(ops) == 2
        assert all(len(op.qubits) <= 2 for op in ops)
        assert_same_effect(c.gates, ops, 4)

    def test_merged_diag_values(self):
        c = Circuit(2).t(0).cz(0, 1)
        (op,) = merge_diagonal_runs(as_ops(c.gates))
        t = np.exp(1j * np.pi / 4)
        np.testing.assert_allclose(op.diag, [1, t, 1, -t], atol=1e-12)


def cap(k):
    """A window cost that reproduces a ``k``-qubit width cap."""
    return window_cap(k)()


def greedy_windows(ops, k, can_densify=lambda qs: True):
    """The window pass as it was before it priced windows: extend the
    window while the union stays within ``k`` qubits and densifiable; an
    op that cannot open one stands alone. Returns the windows."""
    windows, union, open_ = [], set(), False
    for op in ops:
        q = set(op.qubits)
        if open_ and len(union | q) <= k \
                and can_densify(tuple(sorted(union | q))):
            windows[-1].append(op)
            union |= q
        else:
            windows.append([op])
            union = q
            open_ = len(q) <= k and can_densify(tuple(sorted(q)))
    return windows


class TestFuseWindows:
    def test_window_respects_qubit_cap(self):
        c = get_workload("qft", 6)
        ops = fuse_windows(as_ops(c.gates), cap(3))
        assert all(op.num_qubits <= 3 for op in ops)
        assert len(ops) < len(c.gates)
        assert_same_effect(c.gates, ops, 6)

    def test_cap_one_never_fuses_multiqubit(self):
        c = Circuit(2).h(0).cx(0, 1)
        ops = fuse_windows(as_ops(c.gates), cap(1))
        assert len(ops) == 2

    def test_all_diag_window_left_unfused(self):
        # A pure-diagonal window is cheaper as a stored diagonal than as a
        # dense 2^k matrix; the window pass leaves it for the merge pass.
        c = Circuit(2).t(0).cz(0, 1)
        ops = fuse_windows(as_ops(c.gates), cap(2))
        assert all(not isinstance(op, FusedOp) or op.diag is not None
                   for op in ops)

    def test_can_densify_blocks_window(self):
        c = Circuit(2).h(0).cx(0, 1)
        ops = fuse_windows(as_ops(c.gates), cap(2),
                           can_densify=lambda qs: 1 not in qs)
        assert len(ops) == 2

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("workload",
                             ["qft", "supremacy", "vqe", "qaoa", "grover"])
    def test_cap_reproduces_the_greedy_partition(self, workload, k):
        leaves = [GateRecipe(op, -1, gate_is_diagonal(op.to_gate()))
                  for op in as_ops(get_workload(workload, 7).gates)]
        densify = lambda qs: 5 not in qs  # noqa: E731
        want = []
        for window in greedy_windows(leaves, k, densify):
            if len(window) == 1 or all(op.diagonal for op in window):
                want += [[op] for op in window]  # emitted as they are
            else:
                want.append(window)
        got = passes.fuse_windows(leaves, cap(k), densify)
        assert [list(getattr(r, "parts", (r,))) for r in got] == want


class TestCompileGates:
    def test_fusion_off_lowers_one_to_one(self):
        c = get_workload("qft", 5)
        ops, stats = compile_gates(c.gates, fusion=False)
        assert len(ops) == len(c.gates)
        assert all(isinstance(op, GateOp) for op in ops)
        assert [op.to_gate() for op in ops] == list(c.gates)
        assert stats["ops_out"] == stats["gates_in"]

    def test_fusion_on_reduces_and_preserves_semantics(self):
        c = get_workload("qft", 6)
        ops, stats = compile_gates(c.gates, fusion=True)
        assert stats["ops_out"] < stats["gates_in"]
        assert_same_effect(c.gates, ops, 6)

    def test_closing_swaps_stay_swaps(self):
        # A stage ends on its relocations: in a window each would be a
        # dense matmul over the buffer instead of a slice exchange. A swap
        # in the middle of the batch fuses like any other gate.
        # (Windows capped at 3 qubits; the model fuses ry in as well.)
        c = Circuit(4).h(0).swap(0, 1).cx(1, 2).ry(0.3, 3).swap(2, 3).swap(0, 1)
        ops, stats = compile_gates(c.gates, fusion=True, pricing=window_cap(3))
        assert [op.name for op in ops] == ["fused", "ry", "swap", "swap"]
        assert stats["ops_out"] == 4
        assert_same_effect(c.gates, ops, 4)
        ops, _stats = compile_gates(c.gates, fusion=True)
        assert [op.name for op in ops] == ["fused", "swap", "swap"]
        assert_same_effect(c.gates, ops, 4)
        # A backward-planned stage opens on them instead.
        c = Circuit(4).swap(0, 1).swap(2, 3).h(0).swap(0, 1).cx(1, 2).ry(0.3, 3)
        ops, _stats = compile_gates(c.gates, fusion=True, pricing=window_cap(3))
        assert [op.name for op in ops] == ["swap", "swap", "fused", "ry"]
        assert_same_effect(c.gates, ops, 4)

    @pytest.mark.parametrize("workload", ["qft", "grover", "qaoa", "ghz"])
    def test_workload_semantics_preserved(self, workload):
        c = get_workload(workload, 6)
        ops, _ = compile_gates(c.gates, fusion=True)
        assert_same_effect(c.gates, ops, 6)

    def test_options_validation(self):
        # The merge pass's fixed cap is no narrower than the widest window,
        # so a cap-split diagonal run is never densified past the window cap.
        cap = inspect.signature(passes.merge_diagonal_runs) \
            .parameters["max_diag_qubits"].default
        assert cap >= MAX_WINDOW_QUBITS


class TestCompileStages:
    def _plan(self, n=6, chunk=3, fusion=True):
        layout = ChunkLayout(n, chunk)
        stages = plan_stages(get_workload("qft", n), layout, 2)
        return layout, stages, compile_stages(
            stages, layout, fusion=fusion)

    def test_stage_boundaries_preserved(self):
        _, stages, cplan = self._plan()
        assert len(cplan.stages) == len(stages)
        for raw, compiled in zip(stages, cplan.stages):
            if isinstance(raw, PermutationStage):
                assert compiled is raw
            else:
                assert isinstance(compiled, CompiledGateStage)
                assert compiled.group_qubits == tuple(raw.group_qubits)
                assert compiled.source_gates == len(raw.gates)

    def test_report_totals(self):
        _, stages, cplan = self._plan()
        gate_stages = [s for s in stages if isinstance(s, GateStage)]
        assert cplan.report.num_gate_stages == len(gate_stages)
        assert cplan.report.gates_in == sum(len(s.gates) for s in gate_stages)
        assert cplan.report.ops_out < cplan.report.gates_in
        assert cplan.report.fusion_ratio > 1.0

    def test_out_of_group_diagonals_stay_diagonal(self):
        # A dense op touching a global qubit outside the stage group could
        # not be executed per-chunk; the densify predicate must keep such
        # diagonals in diagonal form.
        layout, _, cplan = self._plan()
        for stage in cplan.stages:
            if not isinstance(stage, CompiledGateStage):
                continue
            group = set(stage.group_qubits)
            for op in stage.ops:
                if any(not layout.is_local(q) and q not in group
                       for q in op.qubits):
                    assert op.diag is not None

    def test_fusion_off_keeps_gates_verbatim(self):
        _, stages, cplan = self._plan(fusion=False)
        for raw, compiled in zip(stages, cplan.stages):
            if isinstance(compiled, CompiledGateStage):
                assert list(compiled.gates) == list(raw.gates)

    def test_already_compiled_stage_passes_through(self):
        layout, _, cplan = self._plan()
        again = compile_stages(cplan.stages, layout, fusion=True)
        for a, b in zip(cplan.stages, again.stages):
            assert a is b


class TestIR:
    def test_fused_op_requires_exactly_one_payload(self):
        with pytest.raises(ValueError):
            FusedOp(qubits=(0,), matrix=None, diag=None)
        with pytest.raises(ValueError):
            FusedOp(qubits=(0,), matrix=np.eye(2), diag=np.ones(2))

    def test_report_round_trips_to_dict(self):
        rep = CompileReport(gates_in=10, ops_out=5, fusion_enabled=True)
        d = rep.to_dict()
        assert d["gates_in"] == 10 and d["ops_out"] == 5
        assert d["fusion_ratio"] == 2.0

    def test_as_ops_wraps_gates_and_keeps_ops(self):
        g = make_gate("h", (0,))
        op = GateOp(g)
        out = as_ops([g, op])
        assert isinstance(out[0], GateOp) and out[0].to_gate() is g
        assert out[1] is op

    def test_fused_diag_to_gate(self):
        op = FusedOp(qubits=(0, 2), diag=np.array([1, 1j, -1, -1j]))
        gate = op.to_gate()
        assert gate.qubits == (0, 2)
        assert gate.diag is not None
        assert op.name == "fused_diag"

    def test_gphase_like_wide_diagonal_survives(self):
        d = np.exp(1j * np.linspace(0, 1, 16))
        g = make_diagonal_gate((0, 1, 2, 3), d)
        ops, _ = compile_gates([g], fusion=True)
        (op,) = ops
        assert op.qubits == (0, 1, 2, 3)
        assert_same_effect([g], ops, 4)
