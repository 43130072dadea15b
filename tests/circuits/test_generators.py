"""Unit tests for the workload generators: each produces the right state."""

import math

import numpy as np
import pytest

from repro.circuits import (
    WORKLOADS,
    bernstein_vazirani,
    deutsch_jozsa,
    get_workload,
    ghz,
    grover,
    iqft,
    phase_estimation,
    qaoa_maxcut,
    qft,
    quantum_volume,
    random_circuit,
    supremacy_brickwork,
    vqe_ansatz,
    w_state,
)
from repro.circuits.generators import haar_unitary
from repro.statevector import DenseSimulator, sample_counts


@pytest.fixture(scope="module")
def sim():
    return DenseSimulator()


class TestGHZ:
    def test_amplitudes(self, sim):
        sv = sim.run(ghz(5))
        amp = 1 / math.sqrt(2)
        assert sv.data[0] == pytest.approx(amp)
        assert sv.data[-1] == pytest.approx(amp)
        assert np.count_nonzero(np.abs(sv.data) > 1e-12) == 2

    def test_single_qubit(self, sim):
        sv = sim.run(ghz(1))
        assert abs(sv.data[0]) == pytest.approx(1 / math.sqrt(2))


class TestWState:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_w_state_uniform_one_hot(self, sim, n):
        sv = sim.run(w_state(n))
        expected = np.zeros(1 << n, dtype=complex)
        for q in range(n):
            expected[1 << q] = 1 / math.sqrt(n)
        probs = np.abs(sv.data) ** 2
        want = np.abs(expected) ** 2
        assert np.allclose(probs, want, atol=1e-10)


class TestQFT:
    def test_qft_of_zero_is_uniform(self, sim):
        sv = sim.run(qft(4))
        assert np.allclose(sv.data, 1 / 4.0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_qft_matches_dft_matrix(self, n):
        u = qft(n).to_unitary()
        dim = 1 << n
        k = np.arange(dim)
        dft = np.exp(2j * math.pi * np.outer(k, k) / dim) / math.sqrt(dim)
        assert np.allclose(u, dft, atol=1e-10)

    def test_iqft_inverts_qft(self, sim):
        from repro.circuits import random_circuit

        prep = random_circuit(4, 15, seed=2)
        c = prep.compose(qft(4)).compose(iqft(4))
        ref = sim.run(prep).data
        got = sim.run(c).data
        assert np.allclose(got, ref, atol=1e-10)

    def test_qft_no_swaps(self, sim):
        # Without swaps the output is bit-reversed.
        u = qft(3, swaps=False).to_unitary()
        us = qft(3, swaps=True).to_unitary()
        rev = [int(format(i, "03b")[::-1], 2) for i in range(8)]
        assert np.allclose(us, u[rev, :], atol=1e-10)


class TestGrover:
    @pytest.mark.parametrize("n,marked", [(3, 5), (4, 0), (5, 19), (6, 63)])
    def test_grover_amplifies_marked(self, sim, n, marked):
        sv = sim.run(grover(n, marked=marked))
        p = sv.probability_of(marked)
        assert p > 0.8

    def test_invalid_marked(self):
        with pytest.raises(ValueError):
            grover(3, marked=8)

    def test_explicit_iterations(self, sim):
        c1 = grover(4, marked=3, iterations=1)
        c3 = grover(4, marked=3, iterations=3)
        assert sim.run(c3).probability_of(3) > sim.run(c1).probability_of(3)


class TestBVAndDJ:
    @pytest.mark.parametrize("secret", [0b101, 0b1111, 0b0, 0b1000])
    def test_bv_recovers_secret(self, sim, secret):
        sv = sim.run(bernstein_vazirani(secret, 4))
        assert sv.probability_of(secret) == pytest.approx(1.0, abs=1e-10)

    def test_dj_constant_returns_zero(self, sim):
        sv = sim.run(deutsch_jozsa(4, balanced=False))
        assert sv.probability_of(0) == pytest.approx(1.0, abs=1e-10)

    def test_dj_balanced_never_zero(self, sim):
        sv = sim.run(deutsch_jozsa(4, balanced=True))
        assert sv.probability_of(0) == pytest.approx(0.0, abs=1e-10)


class TestQPE:
    @pytest.mark.parametrize("phase", [0.25, 0.5, 0.125])
    def test_exact_phase_recovered(self, sim, phase):
        t = 3
        sv = sim.run(phase_estimation(phase, t))
        # Counting register should read round(phase * 2^t).
        want = int(round(phase * (1 << t)))
        marg = sv.marginal_probabilities(list(range(t)))
        assert marg[want] == pytest.approx(1.0, abs=1e-8)


class TestQAOA:
    def test_qaoa_builds_and_normalizes(self, sim):
        import networkx as nx

        g = nx.cycle_graph(6)
        c = qaoa_maxcut(g, p=2)
        assert c.num_qubits == 6
        sv = sim.run(c)
        assert sv.norm() == pytest.approx(1.0, abs=1e-10)

    def test_qaoa_rejects_bad_labels(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge("a", "b")
        with pytest.raises(ValueError):
            qaoa_maxcut(g)

    def test_qaoa_param_validation(self):
        import networkx as nx

        with pytest.raises(ValueError):
            qaoa_maxcut(nx.path_graph(3), p=2, gammas=[0.1], betas=[0.2, 0.3])


class TestParamAnsatz:
    def test_vqe_param_count(self):
        with pytest.raises(ValueError):
            vqe_ansatz(3, layers=2, params=np.zeros(5))

    def test_vqe_deterministic_by_seed(self):
        assert vqe_ansatz(4, seed=3) == vqe_ansatz(4, seed=3)

    def test_vqe_normalized(self, sim):
        sv = sim.run(vqe_ansatz(5, layers=2))
        assert sv.norm() == pytest.approx(1.0, abs=1e-10)


class TestRandomFamilies:
    def test_random_circuit_reproducible(self):
        assert random_circuit(5, 30, seed=7) == random_circuit(5, 30, seed=7)

    def test_random_circuit_gate_count(self):
        assert len(random_circuit(5, 37, seed=1)) == 37

    def test_supremacy_structure(self, sim):
        c = supremacy_brickwork(5, depth=4, seed=2)
        assert c.count_ops().get("fsim", 0) > 0
        assert sim.run(c).norm() == pytest.approx(1.0, abs=1e-10)

    def test_quantum_volume_normalized(self, sim):
        sv = sim.run(quantum_volume(4, depth=3, seed=5))
        assert sv.norm() == pytest.approx(1.0, abs=1e-10)

    def test_haar_unitary_is_scipys_draw_bit_for_bit(self):
        """The QR draw replaces ``scipy.stats.unitary_group``: from one
        generator state it returns the same matrix, to the last bit, and
        leaves the generator where scipy leaves it."""
        unitary_group = pytest.importorskip("scipy.stats").unitary_group
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(500):
            u = haar_unitary(4, ours)
            assert np.array_equal(u, unitary_group.rvs(4, random_state=theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_workload_builds_and_runs(self, sim, name):
        c = get_workload(name, 6)
        assert c.num_qubits == 6
        sv = sim.run(c)
        assert sv.norm() == pytest.approx(1.0, abs=1e-9)

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            get_workload("nope", 4)
