"""Hoisting qubit permutations: ``C = C'' · Π`` with ``C''`` swap-free.

The pass itself is checked as a unitary identity on dense states from a
random start (a zero start would hide a wrong ``Π``). What ``MemQSim`` does
with it is checked at the result: a run from |0...0> drops ``Π`` and must
land on the dense simulator's state — to the bit where it did before — and
a run from any given state must plan the circuit as written.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (Circuit, iqft, phase_estimation, qft,
                            random_circuit)
from repro.compile import hoist_permutations
from repro.core import MemQSim, MemQSimConfig, plan_circuit
from repro.device import DeviceSpec
from repro.memory import ChunkLayout
from repro.statevector import DenseSimulator, StateVector

from ..pipeline.test_planner import planning_cases


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


def relabelled(state, permutation):
    """``Π|state>``: what was on wire ``q`` is on wire ``permutation[q]``."""
    n = len(permutation)
    source = [0] * n
    for q, p in enumerate(permutation):
        source[p] = q
    # axis k of the reshaped vector is qubit n - 1 - k
    axes = [n - 1 - source[n - 1 - k] for k in range(n)]
    return np.transpose(state.reshape((2,) * n), axes).reshape(-1)


def dense(circuit, start=None):
    n = circuit.num_qubits
    state = None if start is None else StateVector(n, start.copy())
    return DenseSimulator().run(circuit, state).data


def dense_digest(circuit):
    return hashlib.sha256(np.ascontiguousarray(
        dense(circuit), dtype=np.complex128).tobytes()).hexdigest()


def assert_same_unitary(circuit, seed=0):
    hoisted = hoist_permutations(circuit)
    assert not any(g.name == "swap" for g in hoisted.circuit)
    assert hoisted.swaps == sum(g.name == "swap" for g in circuit)
    assert len(hoisted.circuit) == len(hoisted.slots) \
        == len(circuit) - hoisted.swaps
    assert sorted(hoisted.permutation) == list(range(circuit.num_qubits))
    for g, slot in zip(hoisted.circuit, hoisted.slots):
        src = circuit[slot]
        assert (g.name, g.params) == (src.name, src.params)
    start = random_state(circuit.num_qubits, seed)
    want = dense(circuit, start)
    got = dense(hoisted.circuit, relabelled(start, hoisted.permutation))
    assert np.allclose(got, want, atol=1e-12)
    return hoisted


class TestThePass:
    @given(case=planning_cases(qubits=st.integers(3, 6),
                               chunks=st.just(1), caps=st.just(1)),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=150, deadline=None)
    def test_swap_free_circuit_behind_a_permutation(self, case, seed):
        assert_same_unitary(case[0], seed)

    @pytest.mark.parametrize("circuit", [
        qft(6), iqft(6), phase_estimation(0.3, 5),
        random_circuit(6, 200, seed=5), random_circuit(5, 120, seed=1),
    ], ids=lambda c: c.name)
    def test_named_circuits(self, circuit):
        hoisted = assert_same_unitary(circuit)
        assert hoisted.swaps > 0

    def test_a_swap_relabels_what_comes_before_it_only(self):
        c = Circuit(3).h(0).swap(0, 2).t(0)
        hoisted = hoist_permutations(c)
        assert [(g.name, g.qubits) for g in hoisted.circuit] == \
            [("h", (2,)), ("t", (0,))]
        assert hoisted.permutation == (2, 1, 0)
        assert hoisted.slots == (0, 2)

    def test_swaps_compose_in_circuit_order(self):
        # 0 -> 1 -> 2: what starts on wire 0 ends up on wire 2.
        hoisted = hoist_permutations(Circuit(3).swap(0, 1).swap(1, 2).x(2))
        assert hoisted.permutation == (2, 0, 1)
        assert [g.qubits for g in hoisted.circuit] == [(2,)]

    def test_a_circuit_without_swaps_is_returned_as_it_is(self):
        c = Circuit(4).h(0).cx(0, 3).rz(0.2, 3)
        hoisted = hoist_permutations(c)
        assert hoisted.circuit is c and hoisted.swaps == 0
        assert hoisted.permutation == (0, 1, 2, 3)
        assert hoisted.slots == (0, 1, 2)


def config(chunk_qubits, device_bytes, **kw):
    return MemQSimConfig(chunk_qubits=chunk_qubits, compressor="zlib",
                         device=DeviceSpec(memory_bytes=device_bytes), **kw)


class TestARunFromTheZeroState:
    @pytest.mark.parametrize("fusion", [False, True])
    @pytest.mark.parametrize("make", [qft, iqft], ids=["qft", "iqft"])
    @pytest.mark.parametrize("n,c,device", [(8, 4, 1024), (10, 5, 2048),
                                            (12, 6, 4096)])
    def test_qft_digest_is_the_dense_simulators(self, make, n, c, device,
                                                fusion):
        circuit = make(n)
        res = MemQSim(config(c, device, fuse_gates=fusion)).run(circuit)
        assert res.compile_report.swaps_hoisted == n // 2
        if not fusion:  # fused windows reassociate: equal, not bit-equal
            assert res.state_digest() == dense_digest(circuit)
        assert np.allclose(res.statevector(), dense(circuit), atol=1e-12)

    @pytest.mark.parametrize("circuit", [
        phase_estimation(0.3, 9), random_circuit(10, 200, seed=5),
        random_circuit(10, 200, seed=0), random_circuit(9, 150, seed=2),
    ], ids=lambda c: c.name)
    @pytest.mark.parametrize("c,device", [(6, 4096), (5, 4096)])
    def test_qpe_and_random_keep_full_fidelity(self, circuit, c, device):
        res = MemQSim(config(c, device)).run(circuit)
        assert res.fidelity_vs(dense(circuit)) >= 1.0 - 1e-12
        assert np.allclose(res.statevector(), dense(circuit), atol=1e-12)

    @given(case=planning_cases(qubits=st.integers(6, 8),
                               chunks=st.sampled_from([3, 4]),
                               caps=st.sampled_from([1, 2])),
           fusion=st.booleans(), permutations=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_any_circuit_equals_dense(self, case, fusion, permutations):
        circuit, c, cap = case
        device = 2 * 16 * (1 << (c + cap))  # two buffers of 2^cap chunks
        res = MemQSim(config(c, device, fuse_gates=fusion,
                             enable_permutation_stages=permutations)
                      ).run(circuit)
        assert np.allclose(res.statevector(), dense(circuit), atol=1e-12)

    def test_the_report_says_what_was_hoisted(self):
        res = MemQSim(config(5, 2048)).run(qft(10))
        report = res.compile_report
        assert report.swaps_hoisted == 5
        assert report.front_permutation == tuple(range(9, -1, -1))
        assert report.gates_in == len(qft(10)) - 5
        doc = res.to_dict()
        assert doc["compile"]["swaps_hoisted"] == 5
        assert doc["compile"]["front_permutation"] == list(range(9, -1, -1))
        assert doc["config_echo"]["swaps_hoisted"] == 5
        assert doc["config_echo"]["front_permutation"] == \
            list(range(9, -1, -1))
        assert "hoisted: 5 swaps" in res.report()

    def test_a_plan_that_is_cheaper_as_written_is_kept(self):
        # Relabeling moves other qubits to the global positions; these are
        # circuits where the greedy planner does worse on the relabelled one
        # (seed 13: 42 chunk loads as written, 60 hoisted; seed 15, planned
        # backward: 20 and 26).
        layout = ChunkLayout(14, 10)
        for seed, direction in ((13, "forward"), (15, "backward")):
            circuit = random_circuit(14, 200, seed=seed)
            choice = plan_circuit(circuit, layout, 2, zero_start=True)
            assert choice.hoisted is None and choice.direction == direction
            swaps = sum(g.name == "swap" for g in circuit)
            assert swaps and swaps == sum(
                g.name == "swap" and not g.label
                for s in choice.stages for g in s.gates)
            res = MemQSim(config(10, 2 * 16 << 12)).run(circuit)
            assert res.compile_report.swaps_hoisted == 0
            assert res.compile_report.plan_direction == direction
            assert np.allclose(res.statevector(), dense(circuit), atol=1e-12)


def asymmetric_prep(n):
    """No two qubits in the same state, so a dropped ``Π`` would show."""
    c = Circuit(n)
    for q in range(n):
        c.ry(0.3 + 0.37 * q, q)
    return c.cx(0, n - 1).cx(1, 2)


class TestARunFromAGivenState:
    N, C, DEVICE = 8, 4, 1024

    def setup_method(self):
        self.prep = asymmetric_prep(self.N)
        self.start = dense(self.prep)
        self.want = dense(qft(self.N), self.start)
        self.cfg = config(self.C, self.DEVICE)
        layout = ChunkLayout(self.N, self.C)
        choice = plan_circuit(qft(self.N), layout, 1, zero_start=False)
        assert choice.hoisted is None
        self.stages_as_written = len(choice.stages)
        assert len(plan_circuit(qft(self.N), layout, 1, zero_start=True)
                   .stages) < self.stages_as_written

    def check(self, res):
        assert res.compile_report.swaps_hoisted == 0
        assert res.compile_report.front_permutation == ()
        assert res.compile_report.gates_in == len(qft(self.N))
        assert res.plan.num_stages == self.stages_as_written
        assert np.allclose(res.statevector(), self.want, atol=1e-12)

    def test_initial_state(self):
        self.check(MemQSim(self.cfg).run(
            qft(self.N), initial_state=StateVector(self.N, self.start)))

    def test_checkpoint(self, tmp_path):
        path = str(tmp_path / "prep.ckpt")
        MemQSim(self.cfg).run(self.prep).save_state(path)
        self.check(MemQSim(self.cfg).run(qft(self.N), checkpoint=path))

    def test_initial_store(self):
        sim = MemQSim(self.cfg)
        self.check(sim.run(qft(self.N),
                           initial_store=sim.run(self.prep).store))


class TestThePlanCache:
    def test_zero_and_given_starts_never_share_a_plan(self):
        n, circuit = 8, qft(8)
        sim = MemQSim(config(4, 1024))
        start = dense(asymmetric_prep(n))
        seen = []
        for _ in range(2):
            zero = sim.run(circuit)
            given_ = sim.run(circuit, initial_state=StateVector(n, start))
            seen.append((zero.config_echo["plan_cache"],
                         given_.config_echo["plan_cache"]))
            assert zero.compile_report.swaps_hoisted == 4
            assert given_.compile_report.swaps_hoisted == 0
            assert zero.plan.num_stages < given_.plan.num_stages
            assert zero.state_digest() == dense_digest(circuit)
            assert np.allclose(given_.statevector(), dense(circuit, start),
                               atol=1e-12)
        assert seen == [("miss", "miss"), ("hit", "hit")]
        assert len(sim.plan_cache) == 2

    @staticmethod
    def ansatz(n, params):
        """Rotations on both sides of swaps, so a slot off by the hoisted
        swaps would bind a neighbour's angle."""
        it = iter(params)
        c = Circuit(n)
        for q in range(n):
            c.ry(next(it), q)
        c.swap(0, n - 1).swap(1, n - 2)
        for q in range(n - 1):
            c.cx(q, q + 1).rz(next(it), q + 1)
        c.swap(2, n - 1)
        for q in range(n):
            c.rx(next(it), q)
        return c.swap(0, 1)

    @pytest.mark.parametrize("fusion", [False, True])
    def test_rebinding_a_swap_bearing_ansatz_binds_the_right_angles(
            self, fusion):
        n = 8
        rng = np.random.default_rng(7)
        sim = MemQSim(config(4, 1024, fuse_gates=fusion))
        sources = []
        for _ in range(3):
            circuit = self.ansatz(n, rng.uniform(0, 2 * math.pi, 3 * n - 1))
            res = sim.run(circuit)
            sources.append(res.config_echo["plan_cache"])
            assert res.compile_report.swaps_hoisted == 4
            assert np.allclose(res.statevector(), dense(circuit), atol=1e-12)
        assert sources == ["miss", "rebound", "rebound"]
