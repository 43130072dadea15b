"""The lowered gate IR: what every amplitude-touching consumer executes.

A compiled op is either a :class:`GateOp` (a thin pass-through wrapper over
a circuit :class:`~repro.circuits.gates.Gate`) or a :class:`FusedOp` (the
product of several source gates, stored either as one dense ``2^k x 2^k``
unitary or as one stored diagonal). Both expose the same tiny surface —
``qubits``, ``name``, ``diag`` and ``to_gate()`` — so backends and the
scheduler's per-group remapping treat them uniformly, and a backend that
only understands :class:`~repro.circuits.gates.Gate` (the einsum
cross-validator) still works via ``to_gate()``.

Stage containers mirror the planner's: a :class:`CompiledGateStage` is a
:class:`~repro.pipeline.stages.GateStage` whose gate batch has been lowered
to ops; permutation stages pass through compilation untouched. The full
lowered program is a :class:`CompiledPlan` with a :class:`CompileReport`
accounting for what each pass did.

This module deliberately imports only :mod:`repro.circuits.gates` and numpy
so every layer (core, device, pipeline, statevector) can import it without
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.gates import Gate

__all__ = [
    "GateOp",
    "FusedOp",
    "CompiledGateStage",
    "CompiledPlan",
    "CompileReport",
    "as_ops",
]


@dataclass(frozen=True)
class GateOp:
    """One source gate, lowered 1:1 (the no-fusion case)."""

    gate: Gate
    #: ``gate`` as :func:`repro.statevector.kernels.prepare_launch` lowered
    #: it for one buffer width, set by whoever knows that width (a
    #: :class:`~repro.pipeline.StageProgram`): a backend that runs the numpy
    #: kernels calls it, every other consumer reads ``gate`` as before
    launch: Optional[Callable[[np.ndarray], None]] = field(
        default=None, compare=False, repr=False)

    @property
    def qubits(self) -> Tuple[int, ...]:
        return self.gate.qubits

    @property
    def num_qubits(self) -> int:
        return len(self.gate.qubits)

    @property
    def name(self) -> str:
        return self.gate.name

    @property
    def diag(self) -> Optional[np.ndarray]:
        return self.gate.diag

    def to_gate(self) -> Gate:
        return self.gate

    def __repr__(self) -> str:
        return f"GateOp({self.gate})"


@dataclass
class FusedOp:
    """Several source gates folded into one kernel launch.

    Exactly one of ``matrix`` (dense ``2^k x 2^k`` unitary) or ``diag``
    (stored diagonal of length ``2^k``) is set. ``qubits`` are sorted
    ascending; the first qubit is the least-significant axis, matching the
    :class:`~repro.circuits.gates.Gate` convention. ``sources`` records the
    names of the gates that were folded (provenance for reports/tests).
    """

    qubits: Tuple[int, ...]
    matrix: Optional[np.ndarray] = None
    diag: Optional[np.ndarray] = None
    sources: Tuple[str, ...] = ()
    _gate: Optional[Gate] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.matrix is None) == (self.diag is None):
            raise ValueError("FusedOp needs exactly one of matrix / diag")

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def name(self) -> str:
        return "fused" if self.matrix is not None else "fused_diag"

    def to_gate(self) -> Gate:
        """Lower to a plain Gate (built once, then cached).

        The payload is a product of unitaries each validated when its gate
        was made, so the ``make_gate`` / ``make_diagonal_gate`` checks are
        not repeated on it (a test checks every fused op of the registry
        circuits instead); what those constructors leave — a read-only
        contiguous complex128 array — is what this leaves.
        """
        if self._gate is None:
            payload = self.diag if self.diag is not None else self.matrix
            payload = np.ascontiguousarray(payload, dtype=np.complex128)
            payload.setflags(write=False)
            if self.diag is not None:
                self._gate = Gate("fused_diag", self.qubits, _diag=payload)
            else:
                self._gate = Gate("fused", self.qubits, _matrix=payload)
        return self._gate

    def __repr__(self) -> str:
        kind = "diag" if self.diag is not None else "mat"
        return (f"FusedOp({kind}, q={list(self.qubits)}, "
                f"sources={'+'.join(self.sources) or '?'})")


def as_ops(items: Sequence[Any]) -> List[Any]:
    """Normalize a mixed Gate / op sequence to a list of ops."""
    return [it if hasattr(it, "to_gate") else GateOp(it) for it in items]


@dataclass(frozen=True)
class CompiledGateStage:
    """A planner :class:`~repro.pipeline.stages.GateStage`, lowered to ops."""

    group_qubits: Tuple[int, ...]
    ops: Tuple[Any, ...]
    #: how many source gates this stage's ops came from
    source_gates: int = 0

    @property
    def num_group_qubits(self) -> int:
        return len(self.group_qubits)

    @property
    def gates(self) -> Tuple[Gate, ...]:
        """The ops lowered back to gates (debug / cross-validation)."""
        return tuple(op.to_gate() for op in self.ops)

    def __repr__(self) -> str:
        return (f"CompiledGateStage(group={list(self.group_qubits)}, "
                f"ops={len(self.ops)}, gates={self.source_gates})")


@dataclass
class CompileReport:
    """What the lowering passes did, summed over all gate stages."""

    gates_in: int = 0
    ops_out: int = 0
    fused_1q: int = 0
    merged_diagonals: int = 0
    fused_windows: int = 0
    num_gate_stages: int = 0
    seconds: float = 0.0
    fusion_enabled: bool = False
    #: qubits of the widest window fusion built (0: none)
    widest_window: int = 0
    #: per gate stage, ``(index in the plan, groups, predicted seconds of
    #: one group pass's launches)`` under the model the windows were
    #: priced with (:mod:`repro.compile.cost`)
    kernel_stages: Tuple[Tuple[int, int, float], ...] = ()
    #: circuit swaps :func:`~repro.compile.hoist.hoist_permutations` took
    #: out before planning (they are not among ``gates_in``), and the front
    #: permutation they add up to; 0 and ``()`` for a circuit planned as
    #: written
    swaps_hoisted: int = 0
    front_permutation: Tuple[int, ...] = ()
    #: ``"backward"`` for a plan made on the reversed circuit and flipped
    #: in time (it ends at home with no restore sweeps), else ``"forward"``
    plan_direction: str = "forward"

    @property
    def fusion_ratio(self) -> float:
        """Source gates per emitted op (1.0 = nothing fused)."""
        if self.ops_out <= 0:
            return 1.0
        return self.gates_in / self.ops_out

    @property
    def predicted_kernel_seconds(self) -> float:
        """Every group of every gate stage: groups x one pass's launches."""
        return sum(groups * pass_s for _si, groups, pass_s
                   in self.kernel_stages)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fusion": self.fusion_enabled,
            "widest_window": self.widest_window,
            "gates_in": self.gates_in,
            "ops_out": self.ops_out,
            "fusion_ratio": self.fusion_ratio,
            "fused_1q": self.fused_1q,
            "merged_diagonals": self.merged_diagonals,
            "fused_windows": self.fused_windows,
            "num_gate_stages": self.num_gate_stages,
            "seconds": self.seconds,
            "swaps_hoisted": self.swaps_hoisted,
            "front_permutation": list(self.front_permutation),
            "plan_direction": self.plan_direction,
            "predicted_kernel_seconds": self.predicted_kernel_seconds,
            "kernel_stages": [
                {"stage": si, "groups": groups, "pass_seconds": pass_s,
                 "seconds": groups * pass_s}
                for si, groups, pass_s in self.kernel_stages],
        }


@dataclass
class CompiledPlan:
    """The lowered program: stages ready for the scheduler + accounting."""

    stages: List[Any]
    report: CompileReport
    #: the :class:`~repro.compile.template.PlanTemplate` this plan is a
    #: binding of; hand it back to ``compile_stages`` to bind another
    #: circuit of the same shape without lowering again
    template: Optional[Any] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.stages)

    def __iter__(self):
        return iter(self.stages)
