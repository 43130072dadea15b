"""The compile layer: lower staged gate batches into a fused op IR.

One lowered :class:`~repro.compile.ir.CompiledPlan` is consumed by every
amplitude-touching path — the device executor and (via
:func:`~repro.compile.compiler.compile_gates`) the dense baseline
simulator — so gate fusion happens once, in one place, and every
backend executes the same ops.
"""

from .compiler import compile_gates, compile_stage, compile_stages
from .cost import MAX_WINDOW_QUBITS, launch_seconds, window_cost
from .hoist import Hoisted, hoist_permutations
from .ir import (
    CompiledGateStage,
    CompiledPlan,
    CompileReport,
    FusedOp,
    GateOp,
    as_ops,
)
from .template import PlanTemplate

__all__ = [
    "compile_gates",
    "compile_stage",
    "compile_stages",
    "MAX_WINDOW_QUBITS",
    "launch_seconds",
    "window_cost",
    "Hoisted",
    "hoist_permutations",
    "GateOp",
    "FusedOp",
    "CompiledGateStage",
    "CompiledPlan",
    "CompileReport",
    "PlanTemplate",
    "as_ops",
]
