"""Unit tests for the online scheduler: gate remapping and stage execution."""

import numpy as np
import pytest

from repro.circuits import Circuit, gate_matrix, make_diagonal_gate, make_gate
from repro.compression import get_compressor
from repro.device import DeviceExecutor, DeviceSpec, Stage, Timeline
from repro.memory import BufferPool, ChunkLayout, CompressedChunkStore, MemoryTracker
from repro.pipeline import (
    GateStage,
    PermutationStage,
    StageScheduler,
    plan_stages,
    remap_gate_for_group,
    restrict_diagonal,
)
from repro.statevector import DenseSimulator, apply_gate


class TestRestrictDiagonal:
    def test_no_fixed_passthrough(self):
        d = np.exp(1j * np.arange(4))
        rd, rq = restrict_diagonal(d, (0, 1), {})
        assert np.array_equal(rd, d)
        assert rq == (0, 1)

    def test_fix_one_qubit(self):
        d = np.array([1, 2, 3, 4], dtype=complex)  # index = q0 + 2*q1
        rd, rq = restrict_diagonal(d, (0, 1), {1: 1})
        assert rq == (0,)
        assert np.array_equal(rd, [3, 4])
        rd, rq = restrict_diagonal(d, (0, 1), {1: 0})
        assert np.array_equal(rd, [1, 2])

    def test_fix_all(self):
        d = np.array([1, 2, 3, 4], dtype=complex)
        rd, rq = restrict_diagonal(d, (0, 1), {0: 1, 1: 1})
        assert rq == ()
        assert rd[0] == 4

    def test_fix_middle_of_three(self):
        d = np.arange(8, dtype=complex)  # index = q0 + 2*q1 + 4*q2
        rd, rq = restrict_diagonal(d, (0, 1, 2), {1: 1})
        assert rq == (0, 2)
        # remaining index u = bit(q0) + 2*bit(q2) -> original = q0 + 2 + 4*q2
        assert np.array_equal(rd, [2, 3, 6, 7])


class TestRemapGate:
    def setup_method(self):
        self.lay = ChunkLayout(6, 3)

    def test_local_gate_unchanged(self):
        pl = self.lay.chunk_groups([4])
        g = make_gate("cx", (0, 2))
        assert remap_gate_for_group(g, self.lay, pl, 0) is g

    def test_global_gate_remapped_to_virtual(self):
        pl = self.lay.chunk_groups([4])
        g = make_gate("h", (4,))
        rg = remap_gate_for_group(g, self.lay, pl, 0)
        assert rg.qubits == (3,)
        assert rg.name == "h"

    def test_mixed_gate_remapped(self):
        pl = self.lay.chunk_groups([4, 5])
        g = make_gate("cx", (5, 1))
        rg = remap_gate_for_group(g, self.lay, pl, 0)
        assert rg.qubits == (4, 1)  # qubit 5 is the second group qubit -> pos 3+1

    def test_diagonal_out_of_group_restricted(self):
        pl = self.lay.chunk_groups([])  # all-local stage
        g = make_gate("cz", (0, 5))  # diagonal, qubit 5 fixed by chunk id
        # chunk with bit for qubit 5 = 0: identity -> None
        rg0 = remap_gate_for_group(g, self.lay, pl, 0)
        assert rg0 is None
        # chunk with qubit5 bit = 1: Z on qubit 0
        base = 1 << (5 - 3)
        rg1 = remap_gate_for_group(g, self.lay, pl, base)
        assert rg1 is not None
        assert rg1.qubits == (0,)
        assert np.allclose(rg1.diag, [1, -1])

    def test_fully_fixed_diagonal_phase(self):
        pl = self.lay.chunk_groups([])
        d = np.array([1, 1, 1, 1j], dtype=complex)
        g = make_diagonal_gate((4, 5), d)
        base = (1 << 1) | (1 << 2)  # both bits set
        rg = remap_gate_for_group(g, self.lay, pl, base)
        assert rg is not None and rg.qubits == (0,)
        assert np.allclose(rg.diag, [1j, 1j])

    def test_fully_fixed_identity_skipped(self):
        pl = self.lay.chunk_groups([])
        d = np.array([1, 1, 1, -1], dtype=complex)
        g = make_diagonal_gate((4, 5), d)
        assert remap_gate_for_group(g, self.lay, pl, 0) is None


def build_rig(n=8, c=3, codec="zlib", dev_amps=None, backend=None,
              transfer=None):
    """A streamed rig on a zero state: ``(layout, store, scheduler)``.

    The default device holds a group of two global qubits; ``backend``
    and ``transfer`` go to the :class:`DeviceExecutor` (numpy kernels and
    sync copies when ``None``)."""
    lay = ChunkLayout(n, c)
    tracker = MemoryTracker()
    store = CompressedChunkStore(lay, get_compressor(codec), tracker)
    store.init_zero_state()
    if dev_amps is None:
        dev_amps = (1 << c) * 8
    timeline = Timeline()
    ex = DeviceExecutor(DeviceSpec(memory_bytes=dev_amps * 16),
                        transfer=transfer, timeline=timeline,
                        tracker=tracker, backend=backend)
    pool = BufferPool(2, dev_amps // 2, tracker)
    sched = StageScheduler(lay, store, ex, pool, timeline)
    return lay, store, sched


class TestStageExecution:
    def test_local_stage_matches_dense(self):
        lay, store, sched = build_rig()
        c = Circuit(8).h(0).cx(0, 1).t(2)
        stages = plan_stages(c, lay, 2)
        sched.run(stages)
        ref = DenseSimulator().run(c).data
        assert np.allclose(store.to_statevector(), ref, atol=1e-12)

    def test_group_stage_matches_dense(self):
        lay, store, sched = build_rig()
        c = Circuit(8).h(7).cx(7, 0).h(5)
        stages = plan_stages(c, lay, 2)
        sched.run(stages)
        ref = DenseSimulator().run(c).data
        assert np.allclose(store.to_statevector(), ref, atol=1e-12)

    def test_permutation_stage_matches_dense(self):
        lay, store, sched = build_rig()
        c = Circuit(8).h(0).x(7).swap(6, 7)
        stages = plan_stages(c, lay, 2)
        sched.run(stages)
        ref = DenseSimulator().run(c).data
        assert np.allclose(store.to_statevector(), ref, atol=1e-12)
        assert sched.stats.permutation_stages >= 1

    def test_diagonal_restriction_matches_dense(self):
        lay, store, sched = build_rig()
        c = Circuit(8).h(0).h(5).cz(0, 7).cp(0.7, 6, 1).rzz(0.3, 5, 6)
        stages = plan_stages(c, lay, 2)
        sched.run(stages)
        ref = DenseSimulator().run(c).data
        assert np.allclose(store.to_statevector(), ref, atol=1e-12)

    def test_timeline_has_full_pipeline(self):
        lay, store, sched = build_rig()
        c = Circuit(8).h(7)
        sched.run(plan_stages(c, lay, 1))
        kinds = {row[0] for row in sched.timeline.rows}
        assert {Stage.DECOMPRESS, Stage.H2D, Stage.KERNEL,
                Stage.D2H, Stage.COMPRESS} <= kinds

    def test_unknown_stage_type_rejected(self):
        _, _, sched = build_rig()
        with pytest.raises(TypeError):
            sched.run(["not-a-stage"])  # deriving the pass schedule
        with pytest.raises(TypeError):
            sched.run(["not-a-stage"], passes=[])  # handed one

    def test_identity_diagonals_skipped(self):
        lay, store, sched = build_rig()
        # cz(0,7) restricted on chunks with qubit7=0 is the identity
        c = Circuit(8).h(0).cz(0, 7)
        sched.run(plan_stages(c, lay, 1))
        assert sched.stats.gates_skipped_identity > 0


class TestTinyAngleRegression:
    """Regression: near-identity diagonals must never be dropped.

    An earlier version used np.allclose's default rtol=1e-5 to skip
    "identity" restricted diagonals, silently deleting rotations with
    angles below ~1e-5 (found by hypothesis). The skip must be
    essentially exact.
    """

    @pytest.mark.parametrize("angle", [1e-5, 1e-6, 1e-9])
    def test_tiny_phase_survives_chunking(self, angle):
        lay, store, sched = build_rig()
        c = Circuit(8).h(0).cp(angle, 0, 7)
        sched.run(plan_stages(c, lay, 1))
        ref = DenseSimulator().run(c).data
        assert np.allclose(store.to_statevector(), ref, atol=1e-15)

    def test_tiny_rz_on_global_qubit(self):
        lay, store, sched = build_rig()
        c = Circuit(8).h(7).rz(5e-6, 7)
        sched.run(plan_stages(c, lay, 1))
        ref = DenseSimulator().run(c).data
        assert np.allclose(store.to_statevector(), ref, atol=1e-15)
