"""The support-aware sweep: all-zero groups are planned out, never streamed.

``predict_pass_schedule`` is the one place the executed pass list is
produced. The reference it is held to is the full sweep itself: the same
start state with its zero chunks written through ``store()`` (which never
interns) has full support, so the same plan streams every group — and must
land on the same bits.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.audit import predict_access_schedule, predict_traffic
from repro.circuits import Circuit, qft
from repro.core import MemQSim, MemQSimConfig, PlanCache
from repro.device import DeviceSpec
from repro.memory import (
    ChunkAccessRecorder,
    ChunkLayout,
    CompressedChunkStore,
    MemoryTracker,
    TieredChunkStore,
    load_store,
)
from repro.parallel import run_equivalence
from repro.pipeline import (
    GateStage,
    JobCancelled,
    PermutationStage,
    StageScheduler,
    live_chunks,
    plan_stages,
    predict_pass_schedule,
)
from repro.statevector import DenseSimulator, StateVector
from repro.telemetry import Telemetry

from ..serve.test_cancel import FireAtNthCheck
from .test_planner import planning_cases


def passes_of(schedule):
    return [(si, gi) for kind, si, gi, _m in schedule if kind == "pass"]


class TestSupportRules:
    LAYOUT = ChunkLayout(6, 3)  # 8 chunks

    def test_no_support_given_is_the_full_sweep(self):
        stages = [GateStage((3,)), GateStage(())]
        full = predict_pass_schedule(stages, self.LAYOUT)
        # every second gate stage sweeps backwards
        assert passes_of(full) == [(0, g) for g in range(4)] + \
            [(1, g) for g in reversed(range(8))]
        assert full == predict_pass_schedule(stages, self.LAYOUT,
                                             support=range(8))

    def test_a_group_disjoint_from_the_support_is_dropped(self):
        # groups of qubit 3: (0,1) (2,3) (4,5) (6,7)
        got = predict_pass_schedule([GateStage((3,))], self.LAYOUT,
                                    support={5})
        assert got == [("pass", 0, 2, (4, 5))]  # its id is its sweep index

    def test_a_group_that_runs_makes_all_its_members_live(self):
        stages = [GateStage((3,)), GateStage((4,)), GateStage(())]
        got = predict_pass_schedule(stages, self.LAYOUT, support={0})
        # {0} -> {0,1} -> groups (1,3) and (0,2), the second stage
        # sweeping backwards -> {0,1,2,3}
        assert [m for _k, _s, _g, m in got] == \
            [(0, 1), (1, 3), (0, 2), (0,), (1,), (2,), (3,)]

    def test_a_permutation_relabels_the_support(self):
        perm = (7, 6, 5, 4, 3, 2, 1, 0)  # new[d] = old[perm[d]]
        stages = [PermutationStage(perm), GateStage(())]
        got = predict_pass_schedule(stages, self.LAYOUT, support={1})
        assert got == [("barrier", 0, -1, ()), ("pass", 1, 6, (6,))]

    def test_serpentine_reverses_every_second_gate_stage(self):
        stages = [GateStage((3,)), GateStage((3,))]
        got = predict_pass_schedule(stages, self.LAYOUT, {0, 7})
        assert passes_of(got) == [(0, 0), (0, 3), (1, 3), (1, 0)]

    def test_empty_support_runs_nothing_and_predicts_no_traffic(self):
        stages = [GateStage((3,)), PermutationStage(tuple(range(8)))]
        assert predict_pass_schedule(stages, self.LAYOUT, support=()) == \
            [("barrier", 1, -1, ())]
        assert predict_traffic(stages, self.LAYOUT, support=()) == \
            {0: {}, 1: {}}

    def test_traffic_sums_live_members(self):
        traffic = predict_traffic([GateStage((3,)), GateStage((4,))],
                                  self.LAYOUT, support={0})
        nb = self.LAYOUT.chunk_nbytes
        assert [row["codec.raw_in"] for row in traffic.values()] == \
            [2 * nb, 4 * nb]

    def test_live_chunks_reads_the_store(self):
        store = CompressedChunkStore(self.LAYOUT, MemQSimConfig(
            compressor="zlib").make_compressor())
        store.init_zero_state()
        assert live_chunks(store) == {0}
        store.store(3, np.zeros(8, dtype=complex))  # store() never interns
        assert live_chunks(store) == {0, 3}


def config_for(chunk_qubits, cap, **kw):
    kw.setdefault("compressor", "zlib")
    return MemQSimConfig(
        chunk_qubits=chunk_qubits,
        device=DeviceSpec(memory_bytes=2 * (16 << (chunk_qubits + cap))),
        **kw)


class TestInitialStatesLeaveTheirSupport:
    def test_basis_state_run_skips_and_equals_dense(self):
        n, c = 10, 5
        init = StateVector.basis_state(n, 0b1011010011)
        res = MemQSim(config_for(c, 1)).run(qft(n), initial_state=init)
        swept = res.plan.group_passes + res.scheduler_stats.group_passes_skipped
        layout = ChunkLayout(n, c)
        assert swept == sum(
            layout.num_chunks >> s.num_group_qubits
            for s in plan_stages(qft(n), layout, 1)
            if isinstance(s, GateStage))
        assert res.scheduler_stats.group_passes == res.plan.group_passes
        assert 0 < res.plan.group_passes < swept
        assert np.array_equal(res.statevector(),
                              DenseSimulator().run(qft(n), init).data)

    def test_resumed_checkpoint_starts_from_the_support_the_prefix_left(
            self, tmp_path):
        n, c = 10, 5
        cfg = config_for(c, 1)
        whole = qft(n)
        prefix, rest = whole[:12], whole[12:]
        first = MemQSim(cfg).run(prefix)
        assert first.scheduler_stats.group_passes_skipped > 0
        left = live_chunks(first.store)
        assert 0 < len(left) < first.store.layout.num_chunks
        first.save_state(tmp_path / "prefix.mqs")
        assert live_chunks(load_store(tmp_path / "prefix.mqs",
                                      cfg.make_compressor())) == left

        tel = Telemetry()
        tel.access = ChunkAccessRecorder()
        resumed = MemQSim(cfg, telemetry=tel).run(
            rest, checkpoint=str(tmp_path / "prefix.mqs"))
        stages = resumed.compiled_stages
        assert tel.access.trace() == predict_access_schedule(
            stages, resumed.store.layout, left)
        assert resumed.scheduler_stats.group_passes_skipped > 0
        assert np.array_equal(resumed.statevector(),
                              MemQSim(cfg).run(whole).statevector())


STARTS = ("zero", "basis", "sparse", "dense")


def make_store(layout, cfg):
    if cfg.host_store_mb > 0:
        return TieredChunkStore(layout, cfg.make_compressor(), None,
                                int(cfg.host_store_mb * (1 << 20)),
                                tracker=MemoryTracker())
    return CompressedChunkStore(layout, cfg.make_compressor(),
                                MemoryTracker())


def start_vector(start, layout, rng):
    """A normalised start state and the chunks it is non-zero on."""
    cs = layout.chunk_size
    v = np.zeros(layout.num_amplitudes, dtype=np.complex128)
    if start == "zero":
        v[0] = 1.0
    elif start == "basis":
        v[rng.integers(layout.num_amplitudes)] = 1.0
    else:
        chunks = range(layout.num_chunks) if start == "dense" else \
            rng.choice(layout.num_chunks, size=rng.integers(
                1, layout.num_chunks), replace=False)
        for k in chunks:
            v[k * cs:(k + 1) * cs] = (rng.standard_normal(cs)
                                      + 1j * rng.standard_normal(cs))
        v /= np.linalg.norm(v)
    return v, {k for k in range(layout.num_chunks)
               if v[k * cs:(k + 1) * cs].any()}


def run_from(cfg, circuit, layout, v, *, interned, **sim_kw):
    """Run from ``v`` in a store of this config; ``interned=False`` writes
    the zero chunks through ``store()`` so they read as live."""
    store = make_store(layout, cfg)
    if interned:
        store.init_from_statevector(v)
    else:
        cs = layout.chunk_size
        for k in range(layout.num_chunks):
            store.store(k, v[k * cs:(k + 1) * cs])
    return MemQSim(cfg, **sim_kw).run(circuit, initial_store=store)


class TestTheSkipIsInvisible:
    @given(case=planning_cases(qubits=st.integers(6, 9),
                               chunks=st.sampled_from([3, 4]),
                               caps=st.sampled_from([1, 2])),
           permutations=st.booleans(),
           start=st.sampled_from(STARTS),
           codec=st.sampled_from(["zlib", "szlike"]),
           hierarchy=st.booleans(), seed=st.integers(0, 2 ** 16),
           cancel_at=st.integers(2, 40))
    @settings(max_examples=60, deadline=None)
    def test_skipped_groups_are_zero_and_everything_else_is_as_predicted(
            self, case, permutations, start, codec, hierarchy, seed,
            cancel_at):
        circuit, c, cap = case
        n = circuit.num_qubits
        layout = ChunkLayout(n, c)
        lossless = codec == "zlib"
        kw = {"compressor_options": {"error_bound": 1e-6}} if not lossless \
            else {}
        if hierarchy:  # a Belady cache over a RAM tier of a few blobs
            kw.update(cache_chunks=3, cache_policy="belady",
                      host_store_mb=256 / (1 << 20))
        cfg = config_for(c, cap, compressor=codec, fuse_gates=False,
                         enable_permutation_stages=permutations, **kw)
        v, support = start_vector(start, layout, np.random.default_rng(seed))

        # Every group the run drops is all zero when its stage starts and
        # still when it ends; dropped + executed is the full sweep.
        dropped_total = []
        run_stage = StageScheduler._run_stage

        def checked(self, stage, si, groups):
            dropped = []
            if not isinstance(stage, PermutationStage):
                every = self.layout.chunk_groups(stage.group_qubits).groups
                ran = {gi for gi, _members in groups}
                assert [every[gi] for gi, _m in groups] == \
                    [members for _gi, members in groups]
                dropped = [k for gi, members in enumerate(every)
                           if gi not in ran for k in members]
                dropped_total.append(len(every) - len(groups))
                assert all(self.store.is_zero_chunk(k) for k in dropped)
            run_stage(self, stage, si, groups)
            assert all(self.store.is_zero_chunk(k) for k in dropped)

        tel = Telemetry()
        tel.access = ChunkAccessRecorder()
        plans = PlanCache()
        with mock.patch.object(StageScheduler, "_run_stage", checked):
            if start == "basis":  # through the ``initial_state=`` door
                res = MemQSim(cfg, telemetry=tel, plan_cache=plans).run(
                    circuit, initial_state=StateVector(n, v))
            else:
                res = run_from(cfg, circuit, layout, v, interned=True,
                               telemetry=tel, plan_cache=plans)
        # (a given start state: the circuit is planned as written)
        cached = plans.lookup((circuit.shape_and_values()[0], cfg.plan_key(),
                               layout.chunk_qubits, False))
        plan, cplan = cached.plan, cached.bound
        stats = res.scheduler_stats
        executed = passes_of(predict_pass_schedule(
            cplan.stages, layout, support))
        swept = passes_of(predict_pass_schedule(  # no support: no skip
            cplan.stages, layout))
        assert tel.access.trace() == predict_access_schedule(
            cplan.stages, layout, support)
        assert stats.group_passes == res.plan.group_passes == len(executed)
        assert stats.group_passes_skipped == sum(dropped_total)
        assert len(executed) + stats.group_passes_skipped == len(swept) \
            == plan.group_passes  # the cached plan stays state-independent
        assert set(executed) <= set(swept)
        if start == "dense":
            assert stats.group_passes_skipped == 0
        assert tel.progress.fraction == 1.0
        assert tel.progress.groups_done == tel.progress.groups_total == \
            len(executed) + stats.permutation_stages

        # The same plan sweeping everything lands on the same state — to
        # the bit, unless a lossy codec sits behind a cache (Belady evicts
        # along the schedule, so what is recompressed when differs).
        sv = res.statevector()
        full = run_from(cfg, circuit, layout, v, interned=False)
        assert full.scheduler_stats.group_passes_skipped == 0
        assert full.plan.group_passes == len(swept)
        if lossless or not hierarchy:
            assert np.array_equal(sv, full.statevector())
        dense = DenseSimulator().run(circuit, StateVector(n, v)).data
        assert np.allclose(sv, dense, atol=1e-12 if lossless else 1e-4)

        if start == "zero":
            rep = run_equivalence(circuit, cfg, workers=2)
            assert rep.ok, rep.summary()

        # Cancelled between two passes, the store reloads chunk-consistent.
        store = make_store(layout, cfg)
        store.init_from_statevector(v)
        try:
            MemQSim(cfg, cancel=FireAtNthCheck(cancel_at)).run(
                circuit, initial_store=store)
        except JobCancelled:
            pass
        left = store.to_statevector()  # every chunk decodes
        if lossless and not hierarchy:  # no write-back left in a cache
            assert np.linalg.norm(left) == pytest.approx(1.0, abs=1e-12)


def test_a_dropped_group_keeps_the_ids_after_it():
    """A dropped group does not renumber the ones after it: a pass is traced
    under its placement id."""
    circuit = Circuit(8).h(7).cx(7, 2).h(6).cx(6, 0).h(5)
    tel = Telemetry()
    res = MemQSim(config_for(3, 1), telemetry=tel).run(circuit)
    assert res.scheduler_stats.group_passes_skipped > 0
    by_stage = {}
    for sp in tel.tracer.find("group_pass"):
        by_stage.setdefault(sp.args["stage"], []).append(sp.args["group"])
    assert any(sorted(ids) != list(range(len(ids)))
               for ids in by_stage.values())
    assert np.allclose(res.statevector(), DenseSimulator().run(circuit).data,
                       atol=1e-12)
