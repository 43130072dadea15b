"""Unit tests for transpilation passes."""

import cmath
import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from repro.circuits import (
    Circuit,
    decompose_to_natives,
    random_circuit,
    zyz_angles,
)
from repro.statevector import DenseSimulator


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol=1e-9) -> bool:
    ov = np.vdot(a, b)
    return abs(abs(ov) - 1.0) < atol


class TestZYZ:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_unitary_reconstructs(self, seed):
        u = unitary_group.rvs(2, random_state=np.random.default_rng(seed))
        a, b, c, d = zyz_angles(u)

        def rz(t):
            return np.diag([cmath.exp(-1j * t / 2), cmath.exp(1j * t / 2)])

        def ry(t):
            return np.array(
                [[math.cos(t / 2), -math.sin(t / 2)],
                 [math.sin(t / 2), math.cos(t / 2)]]
            )

        rec = cmath.exp(1j * a) * (rz(b) @ ry(c) @ rz(d))
        assert np.allclose(rec, u, atol=1e-10)

    def test_identity(self):
        a, b, c, d = zyz_angles(np.eye(2, dtype=complex))
        assert abs(c) < 1e-12

    def test_x_gate(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        a, b, c, d = zyz_angles(x)
        assert c == pytest.approx(math.pi, abs=1e-10)


class TestDecompose:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuit_equivalent(self, dense, seed):
        c = random_circuit(5, 40, seed=seed)
        n = decompose_to_natives(c)
        a = dense.run(c).data
        b = dense.run(n).data
        assert states_equal_up_to_phase(a, b)

    def test_native_set_is_restricted(self):
        c = random_circuit(5, 60, seed=11)
        n = decompose_to_natives(c)
        # With KAK, CX is the only multi-qubit non-diagonal survivor.
        for g in n:
            if g.num_qubits >= 2 and g.diag is None:
                assert g.name == "cx", g.name

    def test_toffoli_decomposition(self, dense):
        c = Circuit(3).h(0).h(1).ccx(0, 1, 2)
        n = decompose_to_natives(c)
        assert "ccx" not in n.count_ops()
        assert states_equal_up_to_phase(dense.run(c).data, dense.run(n).data)

    def test_cswap_decomposition(self, dense):
        c = Circuit(3).h(0).x(1).cswap(0, 1, 2)
        n = decompose_to_natives(c)
        assert "cswap" not in n.count_ops()
        assert states_equal_up_to_phase(dense.run(c).data, dense.run(n).data)

    def test_controlled_rotations(self, dense):
        c = Circuit(2).h(0).h(1).crx(0.7, 0, 1).cry(0.3, 1, 0).crz(1.1, 0, 1).cp(0.5, 0, 1)
        n = decompose_to_natives(c)
        for name in ("crx", "cry", "crz", "cp"):
            assert name not in n.count_ops()
        assert states_equal_up_to_phase(dense.run(c).data, dense.run(n).data)

    def test_two_qubit_rotations(self, dense):
        c = Circuit(2).h(0).rxx(0.4, 0, 1).ryy(0.6, 0, 1).rzz(0.8, 0, 1)
        n = decompose_to_natives(c)
        assert states_equal_up_to_phase(dense.run(c).data, dense.run(n).data)

    def test_small_diagonal_synthesized(self, dense):
        c = Circuit(2).h(0).h(1)
        c.diagonal(np.array([1, -1, 1j, -1j]), 0, 1)
        n = decompose_to_natives(c)
        assert all(g.diag is None for g in n)  # synthesized to phase gates
        a = dense.run(c).data
        b = dense.run(n).data
        assert abs(abs(np.vdot(a, b)) - 1.0) < 1e-10

    def test_wide_diagonal_preserved(self):
        d = np.ones(8, dtype=complex)
        d[-1] = -1
        c = Circuit(3).diagonal(d, 0, 1, 2)
        n = decompose_to_natives(c)
        assert any(g.diag is not None for g in n)
