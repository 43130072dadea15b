"""Unit tests for the offline stage planner.

The planner is a list scheduler over the gate dependency DAG that keeps a
logical -> physical qubit map. The walk it replaced — gates in circuit
order, stage closed at the first gate that does not fit — is kept below as
``_reference_in_order_plan``: the new plan may never need more gate stages
than that one, nor more than the planner before the map did
(``PARENT_GATE_STAGES``).
"""

import math
import os
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuits import (
    WORKLOADS,
    Circuit,
    get_workload,
    make_gate,
    qft,
    quantum_volume,
    random_circuit,
    supremacy_brickwork,
    vqe_ansatz,
)
from repro.circuits.gates import gate_is_diagonal
from repro.compile import hoist_permutations
from repro.core import chunk_loads_from_zero, plan_circuit
from repro.device import DeviceSpec
from repro.memory import ChunkLayout
from repro.pipeline import (
    RELOCATE,
    GateStage,
    PermutationStage,
    describe_plan,
    max_group_qubits_for,
    plan_stages,
    predict_pass_schedule,
    trace_qubit_map,
)
from repro.pipeline.planner import _permutation_of
from repro.statevector import DenseSimulator

from .test_scheduler import build_rig


def _reference_lower(g, layout, cap):
    """The old lowering: surplus globals park on the lowest free locals."""
    gq = sorted(layout.global_qubits(g.qubits))
    surplus = len(gq) - cap
    free_locals = [q for q in range(layout.chunk_qubits) if q not in g.qubits]
    if cap < 1 or surplus > len(free_locals):
        raise ValueError(f"cannot lower {g}")
    victims, homes = gq[:surplus], free_locals[:surplus]
    mapping = {q: q for q in g.qubits}
    swaps = [make_gate("swap", (loc, glob)) for loc, glob in zip(homes, victims)]
    mapping.update(zip(victims, homes))
    return swaps + [g.remapped(mapping)] + swaps


def _reference_in_order_plan(circuit, layout, cap):
    """The planner this repo had before: one walk in circuit order."""
    stages = []
    current = None

    def close():
        nonlocal current
        if current is not None and current.gates:
            stages.append(current)
        current = None

    def process(g):
        nonlocal current
        perm = _permutation_of(g, layout)
        if perm is not None:
            close()
            if stages and isinstance(stages[-1], PermutationStage):
                prev = stages[-1]
                composed = tuple(prev.perm[perm[d]] for d in range(len(perm)))
                stages[-1] = PermutationStage(composed, prev.gates + [g])
            else:
                stages.append(PermutationStage(perm, [g]))
            return
        if gate_is_diagonal(g):
            if current is None:
                current = GateStage(group_qubits=())
            current.gates.append(g)
            return
        gq = set(layout.global_qubits(g.qubits))
        if len(gq) > cap:
            for piece in _reference_lower(g, layout, cap):
                process(piece)
            return
        if current is None:
            current = GateStage(group_qubits=tuple(sorted(gq)))
        elif len(set(current.group_qubits) | gq) <= cap:
            current.group_qubits = tuple(sorted(set(current.group_qubits) | gq))
        else:
            close()
            current = GateStage(group_qubits=tuple(sorted(gq)))
        current.gates.append(g)

    for g in circuit:
        process(g)
    close()
    return stages


def gate_stages(stages):
    return sum(isinstance(s, GateStage) for s in stages)


@pytest.fixture
def lay():
    return ChunkLayout(8, 3)


class TestMaxGroupQubits:
    def test_grows_with_device(self, lay):
        small = max_group_qubits_for(lay, DeviceSpec(memory_bytes=(1 << 4) * 16 * 2))
        big = max_group_qubits_for(lay, DeviceSpec(memory_bytes=(1 << 8) * 16 * 2))
        assert big > small

    def test_capped_by_num_qubits(self):
        lay = ChunkLayout(5, 3)
        t = max_group_qubits_for(lay, DeviceSpec(memory_bytes=1 << 30))
        assert t == 2  # cannot exceed the global-qubit count

    def test_chunk_must_fit(self, lay):
        with pytest.raises(ValueError):
            max_group_qubits_for(lay, DeviceSpec(memory_bytes=16))


class TestLocalGates:
    def test_all_local_one_stage(self, lay):
        c = Circuit(8).h(0).cx(0, 1).t(2).cz(1, 2)
        stages = plan_stages(c, lay, 2)
        assert len(stages) == 1
        assert isinstance(stages[0], GateStage)
        assert stages[0].is_local

    def test_diagonal_global_stays_local(self, lay):
        c = Circuit(8).h(0).cz(0, 7).rz(0.3, 6).cp(0.1, 5, 6)
        stages = plan_stages(c, lay, 2)
        assert len(stages) == 1
        assert stages[0].group_qubits == ()

    def test_stored_diagonal_stays_local(self, lay):
        c = Circuit(8)
        d = np.ones(1 << 8, dtype=complex)
        d[-1] = -1
        c.diagonal(d, *range(8))
        stages = plan_stages(c, lay, 1)
        assert len(stages) == 1
        assert stages[0].group_qubits == ()


_1Q = ["h", "x", "t", "s", "sx", "z"]
_1QP = ["rx", "rz", "p"]
_2Q = ["cx", "cz", "swap", "iswap"]
_2QP = ["cp", "rzz", "crx"]
_3Q = ["ccx", "ccz", "cswap"]


@st.composite
def planning_cases(draw, qubits=st.integers(5, 7), chunks=None, caps=None):
    """A random circuit with a chunk size and a group cap to plan it for."""
    n = draw(qubits)
    chunk_qubits = draw(st.integers(3, n - 1) if chunks is None else chunks)
    cap = draw(st.integers(1, n - chunk_qubits) if caps is None else caps)
    angle = st.floats(-math.pi, math.pi, allow_nan=False)
    c = Circuit(n)
    for _ in range(draw(st.integers(0, 30))):
        names = draw(st.sampled_from([_1Q, _1QP, _2Q, _2QP, _3Q]))
        arity = 1 if names in (_1Q, _1QP) else 3 if names is _3Q else 2
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=arity,
                               max_size=arity, unique=True))
        params = (draw(angle),) if names in (_1QP, _2QP) else ()
        c.add(draw(st.sampled_from(names)), *qubits, params=params)
    return c, chunk_qubits, cap


def gate_key(g):
    return (g.name, g.qubits, g.params)


class TestGrouping:
    def test_global_gate_forces_group(self, lay):
        c = Circuit(8).h(7)
        stages = plan_stages(c, lay, 2)
        assert stages[0].group_qubits == (7,)

    def test_union_grows_until_cap(self, lay):
        c = Circuit(8).h(3).h(4).h(5)
        stages = plan_stages(c, lay, 3)
        assert len(stages) == 1
        assert stages[0].group_qubits == (3, 4, 5)

    def test_cap_splits_stages(self, lay):
        c = Circuit(8).h(3).h(4).h(5)
        stages = plan_stages(c, lay, 2)
        assert len(stages) == 2

    @pytest.mark.parametrize("qubits,cap", [((3, 4, 5), 2), ((3, 4, 5), 1),
                                            ((0, 4, 5), 1), ((4, 7), 1)],
                             ids=["3-global-cap-2", "3-global-cap-1",
                                  "2-global-1-local", "2-global"])
    def test_lone_oversized_gate_costs_k_minus_cap_swap_ins(self, lay, qubits,
                                                            cap):
        from scipy.stats import unitary_group

        u = unitary_group.rvs(1 << len(qubits),
                              random_state=np.random.default_rng(0))
        c = Circuit(8).unitary(u, *qubits)
        stages = plan_stages(c, lay, cap)
        surplus = len(lay.global_qubits(qubits)) - cap
        at = next(i for i, s in enumerate(stages)
                  if any(g.name == "unitary" for g in s.gates))
        relocations = [sum(g.label == RELOCATE for g in s.gates)
                       for s in stages]
        # Pulled in one stage at a time, and what came in goes back out:
        # nothing else moves.
        assert sum(relocations[:at]) == surplus
        assert sum(relocations) == 2 * surplus
        check_plan(c, lay, cap, stages)

    def test_global_gate_with_zero_cap_rejected(self, lay):
        c = Circuit(8).h(7)
        with pytest.raises(ValueError):
            plan_stages(c, lay, 0)

    def test_commuting_gates_join_the_open_stage(self, lay):
        # List order is not the contract (test_gate_order_preserved states it):
        # t(1) and a later h(0) ride along with h(7), and h(6), which the
        # 1-qubit cap keeps out, waits for the next stage.
        c = Circuit(8).h(7).h(6).t(1).h(0)
        stages = plan_stages(c, lay, 1)
        assert [tuple(s.group_qubits) for s in stages] == [(7,), (6,)]
        assert [[(g.name, g.qubits) for g in s.gates] for s in stages] == \
            [[("h", (7,)), ("t", (1,)), ("h", (0,))], [("h", (6,))]]

    def test_later_gates_on_other_qubits_do_not_close_the_stage(self, lay):
        # In circuit order this is four stages: 7 | 6 | 7 | 6.
        c = Circuit(8).h(7).h(6).sx(7).sx(6)
        assert len(_reference_in_order_plan(c, lay, 1)) == 4
        stages = plan_stages(c, lay, 1)
        assert [tuple(s.group_qubits) for s in stages] == [(7,), (6,)]

    def test_a_qubit_pulled_local_stays_local(self, lay):
        # The lowering this replaced paid swap-in / gate / swap-back for each
        # of the three: nine stages. The map pays the swap-in once.
        c = Circuit(8).iswap(4, 5).sx(4).iswap(4, 5).sx(4).iswap(4, 5)
        stages = plan_stages(c, lay, 1)
        assert [len(s.gates) for s in stages] == [1, 5, 1]
        assert [tuple(s.group_qubits) for s in stages] == [(4,), (5,), (4,)]
        assert [g.label for s in stages for g in s.gates].count(RELOCATE) == 2
        check_plan(c, lay, 1, stages)

    def test_no_room_to_pull_an_oversized_gate_local_is_rejected(self):
        from scipy.stats import unitary_group

        u = unitary_group.rvs(16, random_state=np.random.default_rng(0))
        c = Circuit(5).unitary(u, 0, 1, 3, 4)
        with pytest.raises(ValueError, match="co-resident"):
            plan_stages(c, ChunkLayout(5, 2), 1)

    @given(case=planning_cases())
    @settings(max_examples=60, deadline=None)
    def test_gate_order_preserved(self, case):
        circuit, chunk_qubits, cap = case
        layout = ChunkLayout(circuit.num_qubits, chunk_qubits)
        check_plan(circuit, layout, cap, plan_stages(circuit, layout, cap))

    @given(case=planning_cases(qubits=st.integers(6, 9),
                               chunks=st.sampled_from([3, 4]),
                               caps=st.sampled_from([1, 2])),
           permutations=st.booleans())
    # The prototype of the map planner never returned on this one: next use
    # by circuit index kept evicting a qubit of the ready oversized gate.
    @example(case=(random_circuit(8, 50, seed=61), 3, 1), permutations=True)
    @settings(max_examples=60, deadline=None)
    def test_every_stage_makes_progress_and_the_state_comes_back_in_order(
            self, case, permutations):
        circuit, chunk_qubits, cap = case
        layout = ChunkLayout(circuit.num_qubits, chunk_qubits)
        stages = plan_stages(circuit, layout, cap, permutations)
        check_plan(circuit, layout, cap, stages)
        assert permutations or not any(isinstance(s, PermutationStage)
                                       for s in stages)
        # Every closed stage schedules a gate or pulls a pinned gate's qubit
        # local (at most two per gate here); the restoration needs at most a
        # stage per global position, three without relabelings.
        assert len(stages) <= 3 * len(circuit) + 3 * layout.num_global_qubits
        again = plan_stages(circuit, layout, cap, permutations)
        assert [(type(s), s.gates) for s in stages] == \
            [(type(s), s.gates) for s in again]


def check_plan(circuit, layout, cap, stages, backward=False):
    """What every plan owes its circuit, stated through the qubit map.

    A forward plan starts at the identity map and moves qubits only after
    a stage's gates; a backward one may start at any map (the map is
    derived from its end) and moves them before. Both end at the identity,
    which the state check at the end sees: the plan runs from |0...0> and
    a permuted result would differ from the dense one.
    """
    # Pulled back through the map in force at its stage, every gate that is
    # not a relocation is a gate of the circuit.
    flat, home = [], list(range(layout.num_qubits))
    occ = home
    for i, (stage, occ, front, back) in enumerate(
            trace_qubit_map(stages, layout.num_qubits)):
        if not backward:
            assert not front and (i or occ == home)
        flat += [g.remapped({p: occ[p] for p in g.qubits})
                 for g in stage.gates if g.label != RELOCATE]
        for qubit, _source, target in back:
            occ[target] = qubit
    assert occ == home  # everybody is home again
    gates = list(circuit)

    # A permutation of the circuit's gate list: the k-th copy of a gate in
    # the plan is the k-th copy in the list (equal gates share their qubits,
    # so they are either ordered or interchangeable).
    copies = defaultdict(list)
    for position, g in enumerate(flat):
        copies[gate_key(g)].append(position)
    assert sorted(map(gate_key, flat)) == sorted(map(gate_key, gates))
    taken = defaultdict(int)
    position_of = []
    for g in gates:
        position_of.append(copies[gate_key(g)][taken[gate_key(g)]])
        taken[gate_key(g)] += 1

    # The order the plan preserves is dependency order, not list order:
    # gates that share a qubit and are not both diagonal stay in sequence
    # (all pairs, no DAG reuse), everything else may move.
    diagonal = [gate_is_diagonal(g) for g in gates]
    for j, later in enumerate(gates):
        for i in range(j):
            if diagonal[i] and diagonal[j]:
                continue
            if set(gates[i].qubits) & set(later.qubits):
                assert position_of[i] < position_of[j], (gates[i], later)

    # Relocations included, a stage only holds what its group can execute.
    for s in stages:
        if isinstance(s, PermutationStage):
            continue
        assert len(s.group_qubits) <= cap
        for g in s.gates:
            if not gate_is_diagonal(g):
                assert set(layout.global_qubits(g.qubits)) \
                    <= set(s.group_qubits)

    # No un-permute anywhere: the chunked state itself is in canonical order.
    _lay, store, sched = build_rig(n=layout.num_qubits, c=layout.chunk_qubits,
                                   dev_amps=(1 << layout.chunk_qubits + cap) * 2)
    sched.run(stages)
    assert np.allclose(store.to_statevector(),
                       DenseSimulator().run(circuit).data, atol=1e-12)


class TestPermutations:
    def test_global_x_becomes_permutation(self, lay):
        stages = plan_stages(Circuit(8).x(7), lay, 2)
        assert len(stages) == 1
        assert isinstance(stages[0], PermutationStage)
        bit = 1 << (7 - 3)
        assert stages[0].perm == tuple(k ^ bit for k in range(32))

    def test_local_x_is_not_permutation(self, lay):
        stages = plan_stages(Circuit(8).x(0), lay, 2)
        assert isinstance(stages[0], GateStage)

    def test_global_swap_becomes_permutation(self, lay):
        stages = plan_stages(Circuit(8).swap(6, 7), lay, 2)
        assert isinstance(stages[0], PermutationStage)

    def test_mixed_swap_not_permutation(self, lay):
        stages = plan_stages(Circuit(8).swap(0, 7), lay, 2)
        assert isinstance(stages[0], GateStage)

    def test_consecutive_permutations_merge(self, lay):
        stages = plan_stages(Circuit(8).x(7).x(6), lay, 2)
        assert len(stages) == 1
        bits = (1 << 4) | (1 << 3)
        assert stages[0].perm == tuple(k ^ bits for k in range(32))

    def test_permutation_can_be_disabled(self, lay):
        stages = plan_stages(Circuit(8).x(7), lay, 2, enable_permutation_stages=False)
        assert isinstance(stages[0], GateStage)

    def test_permutation_composition_order(self, lay):
        # x(7) then swap(6,7): composed permutation must equal applying
        # the two blob permutations in order.
        stages = plan_stages(Circuit(8).x(7).swap(6, 7), lay, 2)
        assert len(stages) == 1
        p1 = [k ^ (1 << 4) for k in range(32)]

        def swap_bits(k):
            a, b = (k >> 3) & 1, (k >> 4) & 1
            return (k & ~(1 << 3) & ~(1 << 4)) | (b << 3) | (a << 4)

        p2 = [swap_bits(k) for k in range(32)]
        composed = tuple(p1[p2[d]] for d in range(32))
        assert stages[0].perm == composed


    def test_permutations_wait_for_the_open_stage_and_merge(self, lay):
        # x(7) and x(5) commute with h(6): one relabeling after the gate
        # stage, not one on either side of it.
        stages = plan_stages(Circuit(8).x(7).h(6).x(5), lay, 1)
        assert [type(s) for s in stages] == [GateStage, PermutationStage]
        assert len(stages[1].gates) == 2
        bits = (1 << 4) | (1 << 2)
        assert stages[1].perm == tuple(k ^ bits for k in range(32))


class TestDescribePlan:
    def test_report_counts(self, lay):
        c = Circuit(8).h(0).x(7).h(6).cz(0, 5)
        stages = plan_stages(c, lay, 2)
        rep = describe_plan(stages, lay)
        assert rep.num_permutation_stages == 1
        assert rep.gates_total == 4
        assert rep.num_stages == len(stages)
        assert rep.group_passes > 0

    def test_group_passes_scale_with_group_size(self, lay):
        c1 = plan_stages(Circuit(8).h(7), lay, 2)
        rep1 = describe_plan(c1, lay)
        assert rep1.group_passes == lay.num_chunks // 2

    def test_realistic_qft_plan(self):
        lay = ChunkLayout(10, 5)
        c = qft(10)
        stages = plan_stages(c, lay, 2)
        rep = describe_plan(stages, lay)
        assert rep.gates_total == len(c)
        # QFT's controlled phases are diagonal: most gates land in
        # stages without huge groups.
        assert rep.max_group_size <= 2


def tilted_brickwork(n, seed):
    """BENCH_E2E's ``dense_lossy`` circuit (benchmarks/e2e/workloads.py)."""
    angles = np.random.default_rng(seed).uniform(math.pi / 4, 3 * math.pi / 4,
                                                 size=n)
    c = Circuit(n)
    for qubit, angle in enumerate(angles):
        c.ry(float(angle), qubit)
    return c.compose(supremacy_brickwork(n, depth=6))


def e2e_case(circuit, chunk_qubits, device_bytes, itemsize=16):
    layout = ChunkLayout(circuit.num_qubits, chunk_qubits, itemsize=itemsize)
    cap = max_group_qubits_for(layout, DeviceSpec(memory_bytes=device_bytes))
    return circuit, layout, cap


# The four BENCH_E2E circuits under their layouts and devices.
E2E_CASES = {
    "dense_lossy": lambda: e2e_case(tilted_brickwork(14, 0), 10, 64 << 10),
    "sparse_lossless": lambda: e2e_case(qft(16), 10, 64 << 10),
    "hierarchy_spill": lambda: e2e_case(vqe_ansatz(16, layers=3), 9, 64 << 10,
                                        itemsize=8),
    "variational_sweep": lambda: e2e_case(vqe_ansatz(10, layers=3), 6, 8 << 10),
}


# Gate stages of the planner before the qubit map (swap-in / gate / swap-back
# lowering, PR 13), under the four layouts of ``test_registry`` and for the
# four benchmark circuits: the second oracle next to the in-order walk.
REGISTRY_LAYOUTS = [(12, 8, 1), (14, 10, 1), (14, 10, 2), (16, 10, 3)]
PARENT_GATE_STAGES = {
    "bv": (4, 4, 2, 2),
    "ghz": (7, 7, 3, 3),
    "grover": (504, 1014, 608, 1208),
    "qaoa": (10, 7, 4, 4),
    "qft": (7, 7, 3, 3),
    "qv": (16, 20, 8, 6),
    "random": (18, 16, 9, 10),
    "supremacy": (26, 27, 12, 10),
    "trotter": (16, 16, 7, 6),
    "vqe": (21, 21, 9, 7),
    "w": (13, 13, 3, 3),
    "dense_lossy": 21,
    "sparse_lossless": 11,
    "hierarchy_spill": 9,
    "variational_sweep": 9,
}


# Group passes run / swept from |0...0> at n 14 (grover: 10), c 8, on a
# 16 KiB and a 64 KiB device (cap 1 and 3; grover 1 and 2), measured when the
# sweep became support-aware. Support at most doubles per group qubit per
# stage, so circuits that entangle early (grover's H layer) gain nothing;
# those rows are part of the record. ``qv_full_depth`` is
# ``quantum_volume(14)`` at its default depth 14, the registry's is depth 8.
SPARSE_START_LAYOUTS = [(8, 16 << 10), (8, 64 << 10)]
SPARSE_START_PASSES = {
    "bv": ((63, 192), (9, 16)),
    "ghz": ((95, 224), (41, 48)),
    "grover": ((403, 404), (251, 251)),
    "qft": ((223, 352), (17, 24)),
    "qv": ((447, 576), (29, 40)),
    "qv_full_depth": ((799, 928), (85, 96)),
    "supremacy": ((255, 384), (17, 24)),
    "trotter": ((223, 352), (17, 24)),
    "vqe": ((159, 288), (17, 24)),
    "w": ((95, 224), (41, 48)),
}


class TestSweepFromTheZeroState:
    @pytest.mark.parametrize("c,device_bytes", SPARSE_START_LAYOUTS)
    @pytest.mark.parametrize("workload", sorted(SPARSE_START_PASSES))
    def test_registry_passes_run_and_swept(self, workload, c, device_bytes):
        if workload == "qv_full_depth":
            circuit = quantum_volume(14)
        else:
            circuit = get_workload(workload, 10 if workload == "grover" else 14)
        layout = ChunkLayout(circuit.num_qubits, c)
        cap = max_group_qubits_for(layout, DeviceSpec(memory_bytes=device_bytes))
        stages = plan_stages(circuit, layout, cap)
        run = sum(kind == "pass" for kind, *_ in predict_pass_schedule(
            stages, layout, support={0}))
        swept = describe_plan(stages, layout).group_passes
        pinned_run, pinned_swept = SPARSE_START_PASSES[workload][
            SPARSE_START_LAYOUTS.index((c, device_bytes))]
        assert swept <= pinned_swept
        assert run <= pinned_run and run <= swept


# Group passes run from |0...0> by the registry's two swap-bearing circuits
# (hoisted, as written) under ``SPARSE_START_LAYOUTS``: hoisted is what a
# zero-start ``MemQSim`` run plans, with the swaps gone into a front
# permutation. Every other registry circuit has no swap and keeps its
# ``SPARSE_START_PASSES`` row.
HOISTED_START_PASSES = {
    "qft": ((63, 223), (9, 17)),
    "random": ((511, 607), (69, 249)),
}


def passes_from_zero(stages, layout):
    return sum(kind == "pass" for kind, *_ in predict_pass_schedule(
        stages, layout, support={0}))


def all_registry_cases():
    for workload in sorted(WORKLOADS):
        for n, c, cap in REGISTRY_LAYOUTS:
            yield workload, n, c, cap
        for c, device_bytes in SPARSE_START_LAYOUTS:
            n = 10 if workload == "grover" else 14
            cap = max_group_qubits_for(ChunkLayout(n, c),
                                       DeviceSpec(memory_bytes=device_bytes))
            yield workload, n, c, cap


def candidates(circuit, layout, cap):
    """Every plan a zero-start run chooses from, in tie order."""
    hoisted = hoist_permutations(circuit)
    sources = [hoisted.circuit] if hoisted.swaps else []
    return [plan_stages(source, layout, cap, backward=backward)
            for backward in (False, True) for source in sources + [circuit]]


def todays_choice(circuit, layout, cap):
    """The choice before backward plans: forward, hoisted unless the plan
    as written ran fewer group passes."""
    hoisted = hoist_permutations(circuit)
    written = plan_stages(circuit, layout, cap)
    if not hoisted.swaps:
        return written
    stages = plan_stages(hoisted.circuit, layout, cap)
    if passes_from_zero(written, layout) < passes_from_zero(stages, layout):
        return written
    return stages


def check_choice(circuit, layout, cap):
    """The run takes the first of the fewest chunk loads, never more than
    the choice before backward plans."""
    choice = plan_circuit(circuit, layout, cap, zero_start=True)
    plans = candidates(circuit, layout, cap)
    loads = [chunk_loads_from_zero(stages, layout) for stages in plans]
    assert [n for _name, n in choice.candidates] == loads
    assert [s.gates for s in choice.stages] == \
        [s.gates for s in plans[loads.index(min(loads))]]
    assert chunk_loads_from_zero(choice.stages, layout) \
        <= chunk_loads_from_zero(todays_choice(circuit, layout, cap), layout)
    return choice


class TestHoistedSwaps:
    @pytest.mark.parametrize("workload,n,c,cap", list(all_registry_cases()))
    def test_registry_hoisted_never_runs_more_passes(self, workload, n, c,
                                                     cap):
        circuit, layout = get_workload(workload, n), ChunkLayout(n, c)
        # ... and the run takes the cheapest of every plan it may run
        choice = check_choice(circuit, layout, cap)
        hoisted = hoist_permutations(circuit)
        if not hoisted.swaps:
            assert hoisted.circuit is circuit  # the very same plan
            assert choice.hoisted is None
            return
        written = plan_stages(circuit, layout, cap)
        stages = plan_stages(hoisted.circuit, layout, cap)
        assert chunk_loads_from_zero(stages, layout) \
            <= chunk_loads_from_zero(written, layout)
        assert describe_plan(stages, layout).group_passes \
            <= describe_plan(written, layout).group_passes
        assert gate_stages(stages) <= gate_stages(written)
        assert choice.hoisted is not None \
            and choice.hoisted.swaps == hoisted.swaps

    @pytest.mark.parametrize("c,device_bytes", SPARSE_START_LAYOUTS)
    @pytest.mark.parametrize("workload", sorted(HOISTED_START_PASSES))
    def test_registry_hoisted_passes_pinned(self, workload, c, device_bytes):
        circuit, layout = get_workload(workload, 14), ChunkLayout(14, c)
        cap = max_group_qubits_for(layout, DeviceSpec(memory_bytes=device_bytes))
        stages = plan_stages(hoist_permutations(circuit).circuit, layout, cap)
        pinned, pinned_written = HOISTED_START_PASSES[workload][
            SPARSE_START_LAYOUTS.index((c, device_bytes))]
        assert passes_from_zero(stages, layout) <= pinned < pinned_written
        assert passes_from_zero(plan_stages(circuit, layout, cap), layout) \
            == pinned_written
        choice = plan_circuit(circuit, layout, cap, zero_start=True)
        assert chunk_loads_from_zero(choice.stages, layout) \
            <= chunk_loads_from_zero(stages, layout)

    def test_qft_at_the_benchmark_layout(self):
        # sparse_lossless: 11 gate stages and 223 passes as written, 5 of
        # the stages a single circuit swap(local, global) — 160 passes that
        # do no arithmetic.
        circuit, layout, cap = E2E_CASES["sparse_lossless"]()
        written = plan_stages(circuit, layout, cap)
        assert sum(all(g.name == "swap" for g in s.gates)
                   for s in written) == 5
        choice = plan_circuit(circuit, layout, cap, zero_start=True)
        stages, hoisted = choice.stages, choice.hoisted
        assert hoisted.swaps == 8
        assert hoisted.permutation == tuple(range(15, -1, -1))
        assert gate_stages(stages) == len(stages) <= 6
        assert passes_from_zero(stages, layout) <= 63
        assert not any(g.name == "swap" for s in stages for g in s.gates)
        # The backward plan ties in chunk loads; the tie keeps the plan the
        # benchmark has always run.
        assert choice.direction == "forward"
        assert [s.gates for s in stages] == [s.gates for s in plan_stages(
            hoisted.circuit, layout, cap)]

    @pytest.mark.parametrize("name", sorted(E2E_CASES))
    def test_no_benchmark_plan_keeps_a_circuit_swap_only_stage(self, name):
        circuit, layout, cap = E2E_CASES[name]()
        stages = check_choice(circuit, layout, cap).stages
        assert not any(s.gates and all(g.name == "swap" and not g.label
                                       for g in s.gates) for s in stages)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n,c,cap", REGISTRY_LAYOUTS)
    def test_the_run_never_takes_the_worse_of_the_two_plans(self, n, c, cap,
                                                            seed):
        # The planner is greedy: relabeling changes who is global, and a
        # backward plan may stream wider groups, so on some random circuits
        # each candidate alone would stream more than another.
        circuit, layout = random_circuit(n, 200, seed=seed), ChunkLayout(n, c)
        choice = check_choice(circuit, layout, cap)
        assert [name for name, _n in choice.candidates] == [
            ("hoisted", "forward"), ("written", "forward"),
            ("hoisted", "backward"), ("written", "backward")]

    def test_a_given_start_plans_the_circuit_as_written(self):
        # Neither hoisted (sparse_lossless would be) nor backward
        # (dense_lossy would be).
        for name in ("sparse_lossless", "dense_lossy"):
            circuit, layout, cap = E2E_CASES[name]()
            choice = plan_circuit(circuit, layout, cap, zero_start=False)
            assert choice.hoisted is None and choice.direction == "forward"
            assert choice.candidates == ()
            assert [s.gates for s in choice.stages] == \
                [s.gates for s in plan_stages(circuit, layout, cap)]


class TestPlanFromTheEnd:
    @given(case=planning_cases(qubits=st.integers(6, 9),
                               chunks=st.sampled_from([3, 4]),
                               caps=st.sampled_from([1, 2])),
           permutations=st.booleans())
    @example(case=(random_circuit(8, 50, seed=61), 3, 1), permutations=True)
    @settings(max_examples=60, deadline=None)
    def test_a_backward_plan_runs_from_zero_and_ends_at_home(self, case,
                                                             permutations):
        circuit, chunk_qubits, cap = case
        layout = ChunkLayout(circuit.num_qubits, chunk_qubits)
        stages = plan_stages(circuit, layout, cap, permutations,
                             backward=True)
        check_plan(circuit, layout, cap, stages, backward=True)
        # Qubits move before a stage's gates, never after them: nothing is
        # left to bring home. Nor before the first: |0...0> absorbs any map.
        trace = list(trace_qubit_map(stages, layout.num_qubits))
        assert not trace or not trace[0][2]
        for stage, _occ, _front, back in trace:
            assert not back or all(g.label == RELOCATE for g in stage.gates)
        again = plan_stages(circuit, layout, cap, permutations, backward=True)
        assert [(type(s), s.gates) for s in stages] == \
            [(type(s), s.gates) for s in again]

    def test_slots_index_the_circuit_as_written(self, lay):
        c = Circuit(8).h(7).rz(0.1, 7).h(6).cx(7, 6).rx(0.2, 5)
        for s in plan_stages(c, lay, 1, backward=True):
            for g, slot in zip(s.gates, s.slots):
                assert (slot < 0) == (g.label == RELOCATE)
                if slot >= 0:
                    assert gate_key(c[slot].remapped(
                        dict(zip(c[slot].qubits, g.qubits)))) == gate_key(g)

    def test_a_relabeling_run_backwards_is_its_inverse(self, lay):
        # x(7) then swap(6, 7): planned from the end, the merged relabeling
        # is composed the other way round and inverted — the same chunks.
        c = Circuit(8).x(7).swap(6, 7)
        backward = plan_stages(c, lay, 2, backward=True)
        assert [type(s) for s in backward] == [PermutationStage]
        assert backward[0].perm == plan_stages(c, lay, 2)[0].perm
        assert [g.name for g in backward[0].gates] == ["x", "swap"]

    def test_dense_lossy_ends_at_home_without_restore_sweeps(self):
        # Forward, 3 of the 7 gate stages only bring qubits home; from the
        # end there is nothing to bring home.
        circuit, layout, cap = E2E_CASES["dense_lossy"]()
        forward = plan_stages(circuit, layout, cap)
        assert gate_stages(forward) == 7
        assert sum(isinstance(s, GateStage)
                   and all(g.label == RELOCATE for g in s.gates)
                   for s in forward) == 3
        choice = plan_circuit(circuit, layout, cap, zero_start=True)
        assert (choice.direction, choice.hoisted) == ("backward", None)
        stages = choice.stages
        assert gate_stages(stages) == len(stages) <= 5
        assert passes_from_zero(stages, layout) <= 15
        assert chunk_loads_from_zero(stages, layout) <= 30 \
            < chunk_loads_from_zero(forward, layout) == 78
        # It starts at a map of its own, which |0...0> absorbs.
        trace = list(trace_qubit_map(stages, layout.num_qubits))
        assert trace[0][1] != list(range(layout.num_qubits))
        assert any(front for _s, _occ, front, _back in trace)


class TestNeverWorseThanInOrder:
    @pytest.mark.parametrize("n,c,cap", REGISTRY_LAYOUTS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_registry(self, workload, n, c, cap):
        circuit, layout = get_workload(workload, n), ChunkLayout(n, c)
        parent = PARENT_GATE_STAGES[workload][REGISTRY_LAYOUTS.index((n, c, cap))]
        assert gate_stages(plan_stages(circuit, layout, cap)) <= min(
            parent, gate_stages(_reference_in_order_plan(circuit, layout, cap)))

    @pytest.mark.parametrize("name", sorted(E2E_CASES))
    def test_benchmark_circuits(self, name):
        circuit, layout, cap = E2E_CASES[name]()
        assert gate_stages(plan_stages(circuit, layout, cap)) <= min(
            PARENT_GATE_STAGES[name],
            gate_stages(_reference_in_order_plan(circuit, layout, cap)))

    def test_headline_cases_pinned(self):
        # In-order walk: 53, 17, 15 and 12 gate stages; before the map: 21,
        # 9, 9 and 11.
        circuit, layout, cap = E2E_CASES["dense_lossy"]()
        assert cap == 1
        assert len(plan_stages(circuit, layout, cap)) <= 8
        circuit, layout, cap = E2E_CASES["hierarchy_spill"]()
        assert cap == 3
        assert gate_stages(plan_stages(circuit, layout, cap)) <= 5
        circuit, layout, cap = E2E_CASES["variational_sweep"]()
        assert gate_stages(plan_stages(circuit, layout, cap)) <= 4

    def test_a_circuit_the_map_cannot_help_keeps_its_plan(self):
        # qft(16): every global qubit's H comes before anything else wants to
        # be local, and the closing swaps pair each global qubit with its own
        # partner — relocating would only add work.
        circuit, layout, cap = E2E_CASES["sparse_lossless"]()
        stages = plan_stages(circuit, layout, cap)
        assert [s.group_qubits for s in stages] == \
            [(q,) for q in (15, 14, 13, 12, 11, 10, 15, 14, 13, 12, 11)]
        assert sorted(gate_key(g) for s in stages for g in s.gates) == \
            sorted(map(gate_key, circuit))
        assert not any(g.label for s in stages for g in s.gates)


PLAN_REPR = """
from repro.circuits import get_workload
from repro.memory import ChunkLayout
from repro.pipeline import plan_stages
for name, n, c, cap in [("supremacy", 12, 8, 1), ("random", 12, 8, 2),
                        ("grover", 8, 5, 1)]:
    for s in plan_stages(get_workload(name, n), ChunkLayout(n, c), cap):
        print(type(s).__name__, getattr(s, "group_qubits", None),
              getattr(s, "perm", None), s.gates)
"""


class TestPureFunctionOfItsInputs:
    def test_same_plan_under_two_hash_seeds(self):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.path.abspath(src))
            done = subprocess.run([sys.executable, "-c", PLAN_REPR], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outs.append(done.stdout)
        assert outs[0] == outs[1] and outs[0].count("GateStage") > 30

    def test_planning_twice_gives_equal_plans(self, lay):
        c = get_workload("random", 8)
        first, second = plan_stages(c, lay, 2), plan_stages(c, lay, 2)
        assert repr([(s, s.gates) for s in first]) == \
            repr([(s, s.gates) for s in second])


class TestPlanningCost:
    @staticmethod
    def best_of(repeats, fn):
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    def test_thirty_qubit_brickwork_plans_in_milliseconds(self):
        # Layout only: no 2^30 state is ever built.
        circuit, layout = supremacy_brickwork(30, depth=10), ChunkLayout(30, 16)
        assert self.best_of(3, lambda: plan_stages(circuit, layout, 2)) < 0.05

    def test_thousands_of_gates_plan_in_well_under_a_second(self):
        circuit, layout = get_workload("grover", 12), ChunkLayout(12, 8)
        assert len(circuit) == 3712
        assert self.best_of(3, lambda: plan_stages(circuit, layout, 1)) < 0.5
