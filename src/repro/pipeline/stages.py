"""Execution-stage descriptors produced by the offline planner.

The planner splits a circuit into stages, each executable under one chunk
residency pattern:

* :class:`GateStage` — a run of gates whose *global* (cross-chunk) qubits
  all fit in one chunk-group footprint; the scheduler streams every chunk
  group through decompress -> H2D -> kernel -> D2H -> recompress once for
  the whole run.
* :class:`PermutationStage` — pure chunk-id permutations (X on a global
  qubit, SWAP between two global qubits): executed by relabeling compressed
  blobs, with **zero** codec or transfer traffic. This is the strongest form
  of the paper's "efficient memory access pattern" goal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..circuits.gates import Gate

__all__ = ["GateStage", "PermutationStage", "ExecutionStage"]


@dataclass
class GateStage:
    """A run of gates sharing one group-qubit footprint.

    Attributes:
        group_qubits: the global qubits that must be co-resident (sorted);
            empty means all gates are chunk-local.
        gates: the gates, in circuit order (stages themselves follow the
            dependency order the planner chose, not the circuit's).
        slots: per gate, its position in the circuit the stage was planned
            from, or -1 for a swap the planner inserted. This is what lets
            a plan lowered once be bound to another circuit of the same
            shape; empty for a hand-built stage (every gate is its own).
    """

    group_qubits: Tuple[int, ...]
    gates: List[Gate] = field(default_factory=list)
    slots: List[int] = field(default_factory=list)

    @property
    def num_group_qubits(self) -> int:
        return len(self.group_qubits)

    @property
    def is_local(self) -> bool:
        return not self.group_qubits

    def __repr__(self) -> str:
        kind = "local" if self.is_local else f"group{list(self.group_qubits)}"
        return f"<GateStage {kind} gates={len(self.gates)}>"


@dataclass
class PermutationStage:
    """Chunk-id relabeling: ``new_chunk[i] = old_chunk[perm[i]]``.

    ``perm`` is stored as the source index for each destination chunk.
    """

    perm: Tuple[int, ...]
    gates: List[Gate] = field(default_factory=list)  # provenance only

    def __repr__(self) -> str:
        return f"<PermutationStage chunks={len(self.perm)} from {len(self.gates)} gates>"


ExecutionStage = "GateStage | PermutationStage"
