"""Unit tests for repro.circuits.gates."""

import math

import numpy as np
import pytest

from repro.circuits.gates import (
    GATE_SET,
    Gate,
    adjoint_matrix,
    controlled_matrix,
    gate_matrix,
    is_diagonal,
    is_permutation,
    is_unitary,
    make_diagonal_gate,
    make_gate,
)

PARAM_SAMPLES = {
    0: [()],
    1: [(0.3,), (math.pi,), (-1.7,)],
    2: [(0.4, 1.1), (math.pi / 2, -0.2)],
    3: [(0.5, 1.2, -0.7), (math.pi, 0.0, math.pi / 4)],
}


class TestGateMatrices:
    @pytest.mark.parametrize("name", sorted(GATE_SET))
    def test_all_named_gates_are_unitary(self, name):
        spec = GATE_SET[name]
        for params in PARAM_SAMPLES[spec.num_params]:
            m = gate_matrix(name, params)
            assert m.shape == (1 << spec.num_qubits, 1 << spec.num_qubits)
            assert is_unitary(m), f"{name}{params} not unitary"

    @pytest.mark.parametrize("name", sorted(GATE_SET))
    def test_matrix_cache_returns_same_object(self, name):
        spec = GATE_SET[name]
        params = PARAM_SAMPLES[spec.num_params][0]
        assert gate_matrix(name, params) is gate_matrix(name, params)

    def test_matrices_are_readonly(self):
        m = gate_matrix("h")
        with pytest.raises(ValueError):
            m[0, 0] = 5.0

    def test_x_matrix(self):
        assert np.allclose(gate_matrix("x"), [[0, 1], [1, 0]])

    def test_h_squared_is_identity(self):
        h = gate_matrix("h")
        assert np.allclose(h @ h, np.eye(2))

    def test_s_squared_is_z(self):
        s = gate_matrix("s")
        assert np.allclose(s @ s, gate_matrix("z"))

    def test_t_fourth_is_z(self):
        t = gate_matrix("t")
        assert np.allclose(np.linalg.matrix_power(t, 4), gate_matrix("z"))

    def test_sx_squared_is_x(self):
        sx = gate_matrix("sx")
        assert np.allclose(sx @ sx, gate_matrix("x"))

    def test_rz_pi_is_z_up_to_phase(self):
        rz = gate_matrix("rz", (math.pi,))
        z = gate_matrix("z")
        phase = rz[0, 0] / z[0, 0]
        assert np.allclose(rz, phase * z)

    def test_u3_covers_h(self):
        u = gate_matrix("u3", (math.pi / 2, 0.0, math.pi))
        h = gate_matrix("h")
        # equal up to global phase
        phase = u[0, 0] / h[0, 0]
        assert np.allclose(u, phase * h)

    def test_cx_little_endian_layout(self):
        # Control = qubit 0 (LSB), target = qubit 1.
        cx = gate_matrix("cx")
        # |01> (q0=1, q1=0) -> |11>: index 1 -> index 3
        v = np.zeros(4)
        v[1] = 1.0
        assert np.allclose(cx @ v, np.eye(4)[3])
        # |10> (q0=0, q1=1) unaffected
        v = np.zeros(4)
        v[2] = 1.0
        assert np.allclose(cx @ v, v)

    def test_swap_matrix_swaps(self):
        sw = gate_matrix("swap")
        v = np.zeros(4)
        v[1] = 1.0  # |q1 q0> = |01>
        assert np.allclose(sw @ v, np.eye(4)[2])

    def test_ccx_flips_only_when_both_controls_set(self):
        ccx = gate_matrix("ccx")
        # controls = qubits 0,1; target = qubit 2.
        v = np.zeros(8)
        v[3] = 1.0  # q0=1,q1=1,q2=0 -> index 3 -> should go to 7
        assert np.allclose(ccx @ v, np.eye(8)[7])
        v = np.zeros(8)
        v[1] = 1.0  # only q0 set: unchanged
        assert np.allclose(ccx @ v, v)

    def test_cswap_swaps_targets_when_control_set(self):
        csw = gate_matrix("cswap")
        # control q0, targets q1,q2: |q2 q1 q0>=|011> (idx 3) -> |101> (idx 5)
        v = np.zeros(8)
        v[3] = 1.0
        assert np.allclose(csw @ v, np.eye(8)[5])

    def test_rzz_diagonal(self):
        m = gate_matrix("rzz", (0.7,))
        assert is_diagonal(m)

    def test_fsim_zero_is_identity(self):
        assert np.allclose(gate_matrix("fsim", (0.0, 0.0)), np.eye(4))


class TestMatrixCacheIsBounded:
    def test_ten_thousand_angles_stay_under_the_cap(self):
        from repro.circuits import gates

        constants = [name for name, spec in GATE_SET.items()
                     if spec.num_params == 0]
        resident = {name: gate_matrix(name) for name in constants}
        for k in range(10_000):
            gate_matrix("ry", (1e-3 * k,))
        parametric = [key for key in gates._MATRIX_CACHE if key[1]]
        assert len(parametric) <= gates._PARAM_MATRIX_CACHE_MAX
        assert len(gates._PARAM_MATRIX_KEYS) <= gates._PARAM_MATRIX_CACHE_MAX
        # Parameterless gates are never dropped ...
        assert all(gate_matrix(name) is resident[name] for name in constants)
        # ... and of the rest the newest stay: a circuit bound last is
        # still cached for whoever runs it next.
        newest = gates._MATRIX_CACHE[("ry", (1e-3 * 9_999,))]
        assert gate_matrix("ry", (1e-3 * 9_999,)) is newest
        assert ("ry", (0.0,)) not in gates._MATRIX_CACHE

    def test_a_dropped_entry_is_rebuilt_equal(self):
        first = gate_matrix("u3", (0.1, 0.2, 0.3)).copy()
        for k in range(5_000):
            gate_matrix("rx", (2.0 + 1e-3 * k,))
        assert np.array_equal(gate_matrix("u3", (0.1, 0.2, 0.3)), first)


class TestControlledMatrix:
    def test_controlled_x_is_cx(self):
        assert np.allclose(controlled_matrix(gate_matrix("x")), gate_matrix("cx"))

    def test_double_controlled_x_is_ccx(self):
        assert np.allclose(controlled_matrix(gate_matrix("x"), 2), gate_matrix("ccx"))

    def test_zero_controls_identity(self):
        x = gate_matrix("x")
        assert controlled_matrix(x, 0) is x

    def test_controlled_preserves_unitarity(self, rng):
        from scipy.stats import unitary_group

        u = unitary_group.rvs(4, random_state=rng)
        cu = controlled_matrix(u, 1)
        assert is_unitary(cu)
        # Identity on the non-all-ones control subspace.
        assert np.allclose(cu[0, 0], 1.0)
        assert np.allclose(cu[2, 2], 1.0)


class TestPredicates:
    def test_is_diagonal(self):
        assert is_diagonal(gate_matrix("z"))
        assert is_diagonal(gate_matrix("cz"))
        assert not is_diagonal(gate_matrix("x"))
        assert not is_diagonal(gate_matrix("h"))

    def test_is_permutation(self):
        assert is_permutation(gate_matrix("x"))
        assert is_permutation(gate_matrix("cx"))
        assert is_permutation(gate_matrix("swap"))
        assert is_permutation(np.eye(4))
        assert not is_permutation(gate_matrix("h"))
        assert not is_permutation(gate_matrix("z"))  # -1 phase disqualifies

    def test_adjoint_matrix(self):
        s = gate_matrix("s")
        assert np.allclose(adjoint_matrix(s), gate_matrix("sdg"))


class TestGateObjects:
    def test_make_gate_validates_arity(self):
        with pytest.raises(ValueError):
            make_gate("cx", (0,))
        with pytest.raises(ValueError):
            make_gate("h", (0, 1))

    def test_make_gate_validates_params(self):
        with pytest.raises(ValueError):
            make_gate("rx", (0,))
        with pytest.raises(ValueError):
            make_gate("h", (0,), (0.4,))

    def test_make_gate_unknown_name(self):
        with pytest.raises(KeyError):
            make_gate("bogus", (0,))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            make_gate("cx", (1, 1))

    def test_negative_qubits_rejected(self):
        with pytest.raises(ValueError):
            make_gate("h", (-1,))

    def test_explicit_matrix_must_be_unitary(self):
        with pytest.raises(ValueError):
            make_gate("unitary", (0,), matrix=np.array([[1, 1], [0, 1]], dtype=complex))

    def test_explicit_matrix_shape_checked(self):
        with pytest.raises(ValueError):
            make_gate("unitary", (0, 1), matrix=np.eye(2, dtype=complex))

    def test_adjoint_self_adjoint(self):
        g = make_gate("x", (3,))
        assert g.adjoint() is g

    def test_adjoint_named_inverse(self):
        assert make_gate("s", (0,)).adjoint().name == "sdg"
        assert make_gate("tdg", (0,)).adjoint().name == "t"

    def test_adjoint_parametric_negates(self):
        g = make_gate("rx", (0,), (0.7,))
        ga = g.adjoint()
        assert ga.name == "rx" and ga.params == (-0.7,)
        assert np.allclose(g.matrix @ ga.matrix, np.eye(2))

    def test_adjoint_generic_unitary(self, rng):
        from scipy.stats import unitary_group

        u = unitary_group.rvs(2, random_state=rng)
        g = make_gate("unitary", (0,), matrix=u)
        assert np.allclose(g.matrix @ g.adjoint().matrix, np.eye(2))

    def test_adjoint_iswap(self):
        g = make_gate("iswap", (0, 1))
        assert np.allclose(g.matrix @ g.adjoint().matrix, np.eye(4))

    def test_remapped(self):
        g = make_gate("cx", (0, 1))
        h = g.remapped({0: 5, 1: 2})
        assert h.qubits == (5, 2)
        assert h.name == "cx"

    def test_str(self):
        assert "rx(0.5) q[2]" == str(make_gate("rx", (2,), (0.5,)))

    def test_gate_properties(self):
        g = make_gate("cz", (0, 1))
        assert g.is_diagonal and not g.is_permutation
        assert g.num_controls == 1


class TestDiagonalGates:
    def test_make_diagonal_gate_roundtrip(self):
        d = np.array([1, -1, 1j, -1j], dtype=complex)
        g = make_diagonal_gate((0, 1), d)
        assert g.diag is not None
        assert np.allclose(g.matrix, np.diag(d))

    def test_diagonal_must_be_unit_modulus(self):
        with pytest.raises(ValueError):
            make_diagonal_gate((0,), np.array([1.0, 0.5]))

    def test_diagonal_length_checked(self):
        with pytest.raises(ValueError):
            make_diagonal_gate((0, 1), np.ones(3))

    def test_diagonal_adjoint_conjugates(self):
        d = np.exp(1j * np.linspace(0, 1, 4))
        g = make_diagonal_gate((0, 1), d)
        ga = g.adjoint()
        assert np.allclose(ga.diag, d.conj())

    def test_diagonal_remap_keeps_diag(self):
        d = np.array([1, -1], dtype=complex)
        g = make_diagonal_gate((0,), d).remapped({0: 3})
        assert g.qubits == (3,)
        assert np.allclose(g.diag, d)
