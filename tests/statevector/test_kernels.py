"""Unit tests for the amplitude-update kernels.

Every kernel path is validated against the brute-force reference: expand the
gate to a full 2^n x 2^n unitary with explicit kron/permutation and matmul.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from repro.circuits import GATE_SET, gate_matrix, make_diagonal_gate, make_gate
from repro.statevector.kernels import (
    apply_1q,
    apply_circuit_gate,
    apply_diagonal,
    apply_gate,
    apply_gate_list,
    apply_matrix_generic,
    apply_stored_diagonal,
    apply_swap,
    fuse_1q_matrices,
    num_qubits_of,
    prepare_launch,
)


def full_unitary(matrix: np.ndarray, qubits, n: int) -> np.ndarray:
    """Reference expansion of a k-qubit gate to n qubits (little-endian)."""
    k = len(qubits)
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(n) if q not in qubits]
    for col in range(dim):
        tin = 0
        for j, q in enumerate(qubits):
            tin |= ((col >> q) & 1) << j
        base = 0
        for q in rest:
            base |= ((col >> q) & 1) << q
        for tout in range(1 << k):
            row = base
            for j, q in enumerate(qubits):
                row |= ((tout >> j) & 1) << q
            u[row, col] = matrix[tout, tin]
    return u


def rand_state(n, seed=0):
    g = np.random.default_rng(seed)
    v = g.standard_normal(1 << n) + 1j * g.standard_normal(1 << n)
    return v / np.linalg.norm(v)


class TestNumQubitsOf:
    def test_power_of_two(self):
        assert num_qubits_of(np.zeros(8, dtype=complex)) == 3

    def test_non_power_rejected(self):
        with pytest.raises(ValueError):
            num_qubits_of(np.zeros(6, dtype=complex))


class TestApply1q:
    @pytest.mark.parametrize("name", ["x", "y", "z", "h", "s", "t", "sx"])
    @pytest.mark.parametrize("qubit", [0, 1, 3])
    def test_named_gates_match_reference(self, name, qubit):
        n = 4
        m = gate_matrix(name)
        v = rand_state(n, seed=qubit)
        want = full_unitary(m, (qubit,), n) @ v
        got = v.copy()
        apply_1q(got, m, qubit)
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_unitaries(self, seed):
        n = 5
        u = unitary_group.rvs(2, random_state=np.random.default_rng(seed))
        q = seed % n
        v = rand_state(n, seed=seed)
        want = full_unitary(u, (q,), n) @ v
        got = v.copy()
        apply_1q(got, u, q)
        assert np.allclose(got, want, atol=1e-12)

    def test_diagonal_fast_path(self):
        n = 3
        m = gate_matrix("rz", (0.7,))
        v = rand_state(n, 1)
        want = full_unitary(m, (1,), n) @ v
        got = v.copy()
        apply_1q(got, m, 1)
        assert np.allclose(got, want, atol=1e-12)

    def test_x_fast_path_swaps(self):
        v = np.array([1, 2, 3, 4], dtype=complex)
        apply_1q(v, gate_matrix("x"), 0)
        assert np.allclose(v, [2, 1, 4, 3])


class TestApplySwap:
    @pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (0, 4), (3, 1), (2, 4)])
    def test_matches_the_matrix_kernel(self, a, b):
        v = rand_state(5, 12)
        want = v.copy()
        apply_matrix_generic(want, gate_matrix("swap"), (a, b))
        got = v.copy()
        apply_swap(got, a, b)
        assert np.array_equal(got, want)

    def test_is_a_pure_copy(self):
        # x*1 + y*0 in the matrix kernel turns -0.0 into +0.0, which a byte
        # digest of a lossless state can see; a relocation must not.
        v = np.array([1, -0.0, complex(-0.0, -0.0), 4], dtype=complex)
        apply_circuit_gate(v, make_gate("swap", (0, 1)))
        assert v.tobytes() == np.array(
            [1, complex(-0.0, -0.0), -0.0, 4], dtype=complex).tobytes()

    def test_circuit_gate_dispatch_on_a_remapped_swap(self):
        g = make_gate("swap", (0, 1)).remapped({0: 3, 1: 1})
        v = rand_state(4, 13)
        want = full_unitary(g.matrix, g.qubits, 4) @ v
        apply_circuit_gate(v, g)
        assert np.array_equal(v, want)


class TestApplyDiagonal:
    def test_cz_diagonal(self):
        n = 3
        d = np.diag(gate_matrix("cz"))
        v = rand_state(n, 2)
        want = full_unitary(gate_matrix("cz"), (0, 2), n) @ v
        got = v.copy()
        apply_diagonal(got, d, (0, 2))
        assert np.allclose(got, want, atol=1e-12)

    def test_stored_diagonal_wide(self):
        n = 5
        rng = np.random.default_rng(3)
        d = np.exp(1j * rng.uniform(0, 2 * np.pi, 1 << n))
        v = rand_state(n, 3)
        want = v * d  # full-register diagonal, qubits in order
        got = v.copy()
        apply_stored_diagonal(got, d, tuple(range(n)))
        assert np.allclose(got, want, atol=1e-12)

    def test_stored_diagonal_subset_scrambled_order(self):
        n = 4
        rng = np.random.default_rng(4)
        d = np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
        qubits = (3, 0, 2, 1)  # scrambled full set exercises the gather
        v = rand_state(n, 4)
        want = full_unitary(np.diag(d), qubits, n) @ v
        got = v.copy()
        apply_stored_diagonal(got, d, qubits)
        assert np.allclose(got, want, atol=1e-12)

    def test_stored_diagonal_partial_qubits(self):
        n = 5
        rng = np.random.default_rng(5)
        d = np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
        qubits = (4, 1, 3, 0)
        v = rand_state(n, 5)
        want = full_unitary(np.diag(d), qubits, n) @ v
        got = v.copy()
        apply_stored_diagonal(got, d, qubits)
        assert np.allclose(got, want, atol=1e-12)


class TestGenericPath:
    @pytest.mark.parametrize("qubits", [(0, 1), (1, 0), (0, 3), (3, 1), (2, 0)])
    def test_random_2q(self, qubits):
        n = 4
        u = unitary_group.rvs(4, random_state=np.random.default_rng(sum(qubits)))
        v = rand_state(n, seed=7)
        want = full_unitary(u, qubits, n) @ v
        got = v.copy()
        apply_matrix_generic(got, u, qubits)
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("qubits", [(0, 1, 2), (2, 0, 3), (3, 1, 0)])
    def test_random_3q(self, qubits):
        n = 4
        u = unitary_group.rvs(8, random_state=np.random.default_rng(11))
        v = rand_state(n, seed=8)
        want = full_unitary(u, qubits, n) @ v
        got = v.copy()
        apply_matrix_generic(got, u, qubits)
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("name", ["cx", "cz", "swap", "iswap", "ccx", "cswap"])
    def test_named_multiqubit_gates(self, name):
        spec = GATE_SET[name]
        n = 5
        qubits = tuple(range(spec.num_qubits, 0, -1))  # e.g. (2,1) or (3,2,1)
        m = gate_matrix(name)
        v = rand_state(n, seed=9)
        want = full_unitary(m, qubits, n) @ v
        got = v.copy()
        apply_gate(got, m, qubits)
        assert np.allclose(got, want, atol=1e-12)


class TestDispatch:
    def test_apply_gate_size_check(self):
        with pytest.raises(ValueError):
            apply_gate(np.zeros(8, dtype=complex), gate_matrix("h"), (0,), num_qubits=4)

    def test_apply_gate_list(self):
        v = rand_state(3, 10)
        gates = [(gate_matrix("h"), (0,)), (gate_matrix("cx"), (0, 1))]
        want = v.copy()
        for m, q in gates:
            apply_gate(want, m, q)
        got = v.copy()
        apply_gate_list(got, gates)
        assert np.allclose(got, want)

    def test_apply_circuit_gate_dispatches_diag(self):
        g = make_diagonal_gate((0, 1), np.array([1, -1, 1, -1], dtype=complex))
        v = rand_state(2, 11)
        want = full_unitary(g.matrix, (0, 1), 2) @ v
        got = v.copy()
        apply_circuit_gate(got, g)
        assert np.allclose(got, want, atol=1e-12)

    def test_apply_circuit_gate_dense(self):
        g = make_gate("h", (1,))
        v = rand_state(2, 12)
        want = full_unitary(g.matrix, (1,), 2) @ v
        got = v.copy()
        apply_circuit_gate(got, g)
        assert np.allclose(got, want, atol=1e-12)

    def test_norm_preserved_over_many_gates(self):
        v = rand_state(6, 13)
        rng = np.random.default_rng(14)
        for _ in range(50):
            q = tuple(rng.choice(6, size=2, replace=False))
            u = unitary_group.rvs(4, random_state=rng)
            apply_gate(v, u, (int(q[0]), int(q[1])))
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


class TestFusion:
    def test_fuse_1q_matrices_order(self):
        h, s = gate_matrix("h"), gate_matrix("s")
        fused = fuse_1q_matrices([h, s])  # h first, then s
        assert np.allclose(fused, s @ h)

    def test_fuse_empty_is_identity(self):
        assert np.allclose(fuse_1q_matrices([]), np.eye(2))


# ---------------------------------------------------------------------------
# Prepared launches: the one-shot kernels above are the reference, bit for bit
# ---------------------------------------------------------------------------

def place(where, k, m, rng):
    """``k`` distinct qubits of an ``m``-qubit buffer, laid out ``where``."""
    if where == "lowest":
        return tuple(range(k))
    if where == "highest":
        return tuple(range(m - k, m))
    if where == "adjacent":
        start = int(rng.integers(0, m - k + 1))
        return tuple(range(start, start + k))
    picked = sorted(int(q) for q in rng.choice(m, size=k, replace=False))
    if where == "unsorted" and k > 1:
        return tuple(picked[1:] + picked[:1])
    return tuple(picked)  # "split": ascending, gaps wherever they fell


def phases(rng, size, ones):
    d = np.exp(1j * rng.uniform(0, 2 * np.pi, size=size))
    d[rng.random(size) < ones] = 1.0  # factors the kernels skip
    return d


def gate_of(kind, m, where, rng):
    """A gate whose launch is of class ``kind``, or ``None`` when no such
    gate fits ``m`` qubits."""
    def qubits(k):
        return place(where, k, m, rng)

    if kind == "swap":
        return make_gate("swap", qubits(2)) if m >= 2 else None
    if kind == "x":
        return make_gate("x", qubits(1))
    if kind == "diagonal_1q":
        return [make_gate("z", qubits(1)), make_gate("s", qubits(1)),
                make_gate("rz", qubits(1), (float(rng.uniform(0, 6)),)),
                make_gate("id", qubits(1))][rng.integers(4)]
    if kind == "dense_1q":
        return [make_gate("h", qubits(1)),
                make_gate("ry", qubits(1), (float(rng.uniform(0, 6)),)),
                make_gate("unitary", qubits(1),
                          matrix=unitary_group.rvs(2, random_state=rng))
                ][rng.integers(3)]
    if kind == "stored_diagonal":
        # <= 3 qubits: slice updates; wider: a gather, or the bare product
        # when the gate covers the whole buffer in order
        k = int(rng.integers(1, min(m, 5) + 1))
        qs = tuple(range(m)) if k == m and where == "lowest" else qubits(k)
        return make_diagonal_gate(qs, phases(rng, 1 << k, 0.3))
    if m < 2:
        return None
    k = int(rng.integers(2, min(m, 3 if kind == "diagonal" else 4) + 1))
    if kind == "diagonal":
        named = {2: [("cz", ()), ("cp", (0.7,)), ("rzz", (1.3,))],
                 3: [("ccz", ())]}[k]
        name, params = named[rng.integers(len(named))]
        if rng.random() < 0.5:
            return make_gate(name, qubits(k), params)
        return make_gate("unitary", qubits(k),
                         matrix=np.diag(phases(rng, 1 << k, 0.3)))
    assert kind == "generic"
    if k == 2 and rng.random() < 0.3:
        return make_gate("cx", qubits(2))
    return make_gate("unitary", qubits(k),
                     matrix=unitary_group.rvs(1 << k, random_state=rng))


LAUNCH_KINDS = ["stored_diagonal", "swap", "diagonal_1q", "x", "dense_1q",
                "diagonal", "generic"]


class TestPreparedLaunch:
    @given(kind=st.sampled_from(LAUNCH_KINDS), m=st.integers(1, 12),
           where=st.sampled_from(["adjacent", "split", "lowest", "highest",
                                  "unsorted"]),
           dtype=st.sampled_from([np.complex64, np.complex128]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=400, deadline=None)
    def test_a_launch_is_its_kernel_bit_for_bit(self, kind, m, where, dtype,
                                                seed):
        rng = np.random.default_rng(seed)
        gate = gate_of(kind, m, where, rng)
        if gate is None:
            return
        buf = (rng.standard_normal(1 << m)
               + 1j * rng.standard_normal(1 << m)).astype(dtype)
        # signed zeros, whole and half: a copy keeps them, a product may not
        zeros = rng.choice(1 << m, size=min(1 << m, 3), replace=False)
        buf[zeros] = [-0.0, complex(-0.0, -0.0), complex(1.0, -0.0)][:len(zeros)]
        want, got = buf.copy(), buf.copy()
        apply_circuit_gate(want, gate)
        launch = prepare_launch(gate, m)
        launch(got)
        assert launch.kind == kind and launch.m == m
        assert got.dtype == dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
        # ... and again: a launch keeps no state between buffers
        launch(got)
        apply_circuit_gate(want, gate)
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    def test_every_class_and_every_stored_diagonal_form_is_reachable(self):
        rng = np.random.default_rng(0)
        seen = {prepare_launch(gate_of(kind, 6, "split", rng), 6).kind
                for kind in LAUNCH_KINDS}
        assert seen == set(LAUNCH_KINDS)
        # the two wide forms of a stored diagonal against their kernel
        for qs in [(0, 1, 2, 3, 4, 5), (5, 0, 3, 1)]:
            gate = make_diagonal_gate(qs, phases(rng, 1 << len(qs), 0.0))
            want, got = rand_state(6, 3), rand_state(6, 3)
            apply_circuit_gate(want, gate)
            prepare_launch(gate, 6)(got)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", LAUNCH_KINDS)
    def test_a_launch_refuses_any_other_width(self, kind):
        rng = np.random.default_rng(1)
        launch = prepare_launch(gate_of(kind, 6, "split", rng), 6)
        for other in (5, 7):
            buf = rand_state(other)
            with pytest.raises(ValueError):
                launch(buf)
            assert np.array_equal(buf, rand_state(other))  # untouched

    def test_a_qubit_outside_the_buffer_is_refused_when_preparing(self):
        with pytest.raises(ValueError):
            prepare_launch(make_gate("cx", (0, 4)), 4)
