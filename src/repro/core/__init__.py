"""MEMQSim core: configuration, backends, simulator, results."""

from .backend import Backend, EinsumBackend, NumpyKernelBackend
from .config import MemQSimConfig
from .memqsim import MemQSim, PlanChoice, chunk_loads_from_zero, plan_circuit
from .plancache import PlanCache
from .results import MemQSimResult

__all__ = [
    "MemQSim",
    "MemQSimConfig",
    "MemQSimResult",
    "PlanCache",
    "PlanChoice",
    "plan_circuit",
    "chunk_loads_from_zero",
    "Backend",
    "NumpyKernelBackend",
    "EinsumBackend",
]
