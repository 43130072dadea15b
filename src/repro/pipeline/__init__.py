"""Pipeline: offline planner, online scheduler."""

from .cancel import CancelToken, JobCancelled
from .planner import (
    RELOCATE,
    PlanReport,
    describe_plan,
    max_group_qubits_for,
    plan_stages,
    trace_qubit_map,
)
from .scheduler import (
    StageProgram,
    StageScheduler,
    remap_gate_for_group,
    restrict_diagonal,
    stage_programs,
)
from .stages import GateStage, PermutationStage
from .sweep import live_chunks, predict_pass_schedule

__all__ = [
    "CancelToken",
    "JobCancelled",
    "GateStage",
    "PermutationStage",
    "plan_stages",
    "max_group_qubits_for",
    "describe_plan",
    "PlanReport",
    "trace_qubit_map",
    "RELOCATE",
    "live_chunks",
    "predict_pass_schedule",
    "StageProgram",
    "stage_programs",
    "StageScheduler",
    "remap_gate_for_group",
    "restrict_diagonal",
]
