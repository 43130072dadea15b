"""Variational workflows: parameter-shift gradients over MEMQSim.

VQE/QAOA loops need gradients of ``E(params) = <psi(params)|H|psi(params)>``.
For gates of the form ``exp(-i theta G / 2)`` with ``G^2 = I`` (every
``rx/ry/rz/rzz/rxx/ryy/crx/cry/crz`` in the gate set), the parameter-shift
rule is exact:

    dE/dtheta = ( E(theta + pi/2) - E(theta - pi/2) ) / 2

Each partial derivative costs two full simulations; the circuit builder is
re-invoked per shift so any ansatz works — and as long as every call uses
one simulator (pass ``sim``), the ansatz is planned and lowered once: a
shifted circuit has the shape of the last and only rebinds its plan
template. Controlled rotations use the
half-angle variant (shift ±pi, prefactor 1/2... more precisely their
eigenvalue gap is 1, giving shift pi/2 with prefactor 1/2).

The module also ships a minimal gradient-descent driver used by the tests
and the VQE example — deliberately simple; plug your own optimizer for
real work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .circuits.circuit import Circuit
from .core.memqsim import MemQSim
from .observables.pauli_sum import PauliSum

__all__ = ["parameter_shift_gradient", "energy_of", "GradientDescent",
           "OptimizeResult"]

#: gates obeying the standard two-term shift rule with gap 1
_SHIFT_GAP_ONE = {"rx", "ry", "rz", "rzz", "rxx", "ryy", "p", "cp",
                  "crx", "cry", "crz"}


def energy_of(
    build: Callable[[np.ndarray], Circuit],
    params: np.ndarray,
    hamiltonian: PauliSum,
    sim: Optional[MemQSim] = None,
) -> float:
    """E(params): run the ansatz and evaluate the Hamiltonian streamed."""
    simulator = sim if sim is not None else MemQSim()
    result = simulator.run(build(np.asarray(params, dtype=float)))
    return hamiltonian.expectation_chunked(result)


def parameter_shift_gradient(
    build: Callable[[np.ndarray], Circuit],
    params: np.ndarray,
    hamiltonian: PauliSum,
    sim: Optional[MemQSim] = None,
    indices: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Exact gradient via the two-term parameter-shift rule.

    Args:
        build: maps a parameter vector to the ansatz circuit. Each
            parameter must enter the circuit only through shift-rule gates
            (the standard hardware-efficient ansätze qualify).
        params: the point to differentiate at.
        hamiltonian: the observable.
        sim: simulator (defaults to ``MemQSim()``).
        indices: subset of parameters to differentiate (default: all).

    Returns:
        gradient array (zeros outside ``indices``).
    """
    params = np.asarray(params, dtype=float)
    simulator = sim if sim is not None else MemQSim()
    idxs = list(indices) if indices is not None else list(range(params.shape[0]))
    grad = np.zeros_like(params)
    shift = math.pi / 2.0
    for k in idxs:
        plus = params.copy()
        plus[k] += shift
        minus = params.copy()
        minus[k] -= shift
        e_plus = energy_of(build, plus, hamiltonian, simulator)
        e_minus = energy_of(build, minus, hamiltonian, simulator)
        grad[k] = 0.5 * (e_plus - e_minus)
    return grad


@dataclass
class OptimizeResult:
    """Outcome of a :class:`GradientDescent` run."""

    params: np.ndarray
    energy: float
    history: List[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


class GradientDescent:
    """Plain gradient descent with optional momentum — a reference driver."""

    def __init__(self, learning_rate: float = 0.1, momentum: float = 0.0,
                 max_iterations: int = 50, tolerance: float = 1e-6):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)

    def minimize(
        self,
        build: Callable[[np.ndarray], Circuit],
        params: np.ndarray,
        hamiltonian: PauliSum,
        sim: Optional[MemQSim] = None,
        callback: Optional[Callable[[int, float], None]] = None,
    ) -> OptimizeResult:
        """Descend from ``params``; stops on small energy change."""
        simulator = sim if sim is not None else MemQSim()
        params = np.asarray(params, dtype=float).copy()
        velocity = np.zeros_like(params)
        energy = energy_of(build, params, hamiltonian, simulator)
        history = [energy]
        converged = False
        it = 0
        for it in range(1, self.max_iterations + 1):
            grad = parameter_shift_gradient(build, params, hamiltonian, simulator)
            velocity = self.momentum * velocity - self.learning_rate * grad
            params = params + velocity
            energy = energy_of(build, params, hamiltonian, simulator)
            history.append(energy)
            if callback is not None:
                callback(it, energy)
            if abs(history[-2] - history[-1]) < self.tolerance:
                converged = True
                break
        return OptimizeResult(
            params=params, energy=energy, history=history,
            iterations=it, converged=converged,
        )
