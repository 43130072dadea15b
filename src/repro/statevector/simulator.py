"""The dense full-memory baseline simulator (SV-Sim stand-in).

:class:`DenseSimulator` holds the entire ``2^n`` state vector in one
contiguous array and applies gates through the vectorized kernels. It is

* the correctness oracle every MEMQSim configuration is tested against, and
* the "no compression, unlimited memory" baseline in the end-to-end
  benchmarks (experiment A3 in DESIGN.md).

Gate fusion is delegated to the shared compile layer
(:func:`repro.compile.compile_gates`) — the same passes that lower the
chunked pipeline's plan — so the dense baseline and MEMQSim execute
identically-fused ops.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..circuits.circuit import Circuit
from .kernels import apply_gate, apply_stored_diagonal
from .measurement import sample_counts
from .statevector import StateVector

__all__ = ["DenseSimulator", "DenseRunStats"]


@dataclass
class DenseRunStats:
    """Timing and size accounting for one dense run."""

    num_qubits: int = 0
    num_gates: int = 0
    num_fused_groups: int = 0
    wall_time_s: float = 0.0
    peak_bytes: int = 0
    per_gate_seconds: Dict[str, float] = field(default_factory=dict)


class DenseSimulator:
    """Full in-memory state-vector simulator."""

    def __init__(self, fuse_single_qubit_gates: bool = False):
        self.fuse_single_qubit_gates = bool(fuse_single_qubit_gates)
        self.last_stats: Optional[DenseRunStats] = None

    # -- public API -------------------------------------------------------

    def run(
        self,
        circuit: Circuit,
        initial_state: Optional[StateVector] = None,
    ) -> StateVector:
        """Execute ``circuit`` and return the final state."""
        sv = (
            initial_state.copy()
            if initial_state is not None
            else StateVector(circuit.num_qubits)
        )
        if sv.num_qubits != circuit.num_qubits:
            raise ValueError("initial state size does not match circuit")
        stats = DenseRunStats(
            num_qubits=circuit.num_qubits,
            num_gates=len(circuit),
            peak_bytes=sv.nbytes,
        )
        t0 = time.perf_counter()
        ops = self._plan(circuit)
        stats.num_fused_groups = len(ops)
        for op in ops:
            g0 = time.perf_counter()
            d = op.diag
            if d is not None:
                apply_stored_diagonal(sv.data, d, op.qubits)
            else:
                apply_gate(sv.data, op.to_gate().matrix, op.qubits,
                           circuit.num_qubits)
            dt = time.perf_counter() - g0
            name = op.name
            stats.per_gate_seconds[name] = stats.per_gate_seconds.get(name, 0.0) + dt
        stats.wall_time_s = time.perf_counter() - t0
        self.last_stats = stats
        return sv

    def sample(
        self,
        circuit: Circuit,
        shots: int,
        seed: Optional[int] = None,
    ) -> Dict[str, int]:
        """Run and sample measurement outcomes on all qubits."""
        sv = self.run(circuit)
        return sample_counts(sv, shots, rng=np.random.default_rng(seed))

    def expectation(self, circuit: Circuit, pauli: str,
                    qubits: Optional[Sequence[int]] = None) -> float:
        return self.run(circuit).expectation_pauli(pauli, qubits)

    # -- planning ------------------------------------------------------------

    def _plan(self, circuit: Circuit):
        """Lower the circuit to compiled ops (GateOp/FusedOp).

        With fusion off every gate lowers 1:1; with fusion on the shared
        compile passes fold 1q runs, merge diagonal runs, and fuse the gate
        windows the launch-cost model prices lowest on the whole state.
        """
        # Runtime import: repro.compile imports this package's kernels.
        from ..compile import compile_gates

        ops, _ = compile_gates(circuit.gates, self.fuse_single_qubit_gates,
                               num_qubits=circuit.num_qubits)
        return ops
