"""Unit tests for the pluggable kernel backends (cross-validation)."""

import numpy as np
import pytest

from repro.circuits import make_diagonal_gate, make_gate, random_circuit
from repro.core import EinsumBackend, NumpyKernelBackend
from repro.core.backend import Backend


def rand_state(n, seed=0):
    g = np.random.default_rng(seed)
    v = g.standard_normal(1 << n) + 1j * g.standard_normal(1 << n)
    return v / np.linalg.norm(v)


class TestCrossValidation:
    """einsum and numpy backends are independent implementations —
    agreement on random circuits validates both."""

    @pytest.mark.parametrize("seed", range(5))
    def test_backends_agree_on_random_circuits(self, seed):
        c = random_circuit(6, 40, seed=seed)
        a = rand_state(6, seed)
        b = a.copy()
        NumpyKernelBackend().apply(a, list(c))
        EinsumBackend().apply(b, list(c))
        assert np.allclose(a, b, atol=1e-10)

    def test_backends_agree_on_3q_gates(self):
        gates = [make_gate("ccx", (2, 0, 4)), make_gate("cswap", (1, 3, 0))]
        a = rand_state(5, 9)
        b = a.copy()
        NumpyKernelBackend().apply(a, gates)
        EinsumBackend().apply(b, gates)
        assert np.allclose(a, b, atol=1e-10)

    def test_backends_agree_on_diagonals(self):
        d = np.exp(1j * np.linspace(0, 3, 8))
        gates = [make_diagonal_gate((4, 1, 3), d)]
        a = rand_state(5, 10)
        b = a.copy()
        NumpyKernelBackend().apply(a, gates)
        EinsumBackend().apply(b, gates)
        assert np.allclose(a, b, atol=1e-10)

    def test_einsum_preserves_norm(self):
        c = random_circuit(5, 30, seed=6)
        v = rand_state(5, 11)
        EinsumBackend().apply(v, list(c))
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


class TestBackendContract:
    def test_backend_is_abstract(self):
        with pytest.raises(TypeError):
            Backend()
