"""Dense state-vector substrate: vectors, kernels, measurement, baseline sim."""

from .entanglement import (
    entanglement_entropy,
    entropy_profile,
    max_entropy,
    reduced_density_matrix,
    von_neumann_entropy,
)
from .kernels import (
    apply_1q,
    apply_diagonal,
    apply_gate,
    apply_matrix_generic,
    apply_swap,
    prepare_launch,
)
from .measurement import expectation_z, measure_qubit, sample_counts, sample_outcomes
from .simulator import DenseRunStats, DenseSimulator
from .statevector import StateVector

__all__ = [
    "StateVector",
    "DenseSimulator",
    "DenseRunStats",
    "apply_gate",
    "apply_1q",
    "apply_diagonal",
    "apply_matrix_generic",
    "apply_swap",
    "prepare_launch",
    "sample_counts",
    "sample_outcomes",
    "measure_qubit",
    "expectation_z",
    "entanglement_entropy",
    "entropy_profile",
    "reduced_density_matrix",
    "von_neumann_entropy",
    "max_entropy",
]
