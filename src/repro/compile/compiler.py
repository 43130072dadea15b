"""Compile a circuit's gate batches into the lowered op IR.

:func:`compile_gates` lowers one flat gate list (the dense simulator's
whole circuit); :func:`compile_stages` lowers a planner stage list into a
:class:`~repro.compile.ir.CompiledPlan` (the chunked pipeline's program).
Both run the same pass pipeline — 1q folding, diagonal merging, window
fusion — switched by one ``fusion`` flag. Under fusion all three run;
the passes stay public functions (:mod:`repro.compile.passes`) so one can
run alone.

Compiling is two steps. *Lowering* takes the decisions and records them as
recipes (:mod:`repro.compile.template`); they depend on the circuit's shape
only. *Binding* evaluates the recipes for one circuit's parameter values.
:func:`compile_stages` does both the first time and returns the template
with the plan, and binds alone when it is handed that template again.

With fusion disabled the compiler still runs: every gate lowers 1:1 to a
:class:`~repro.compile.ir.GateOp`, so consumers always execute the same IR
regardless of whether fusion is on. Stage boundaries are preserved by
construction — each stage's batch compiles independently and permutation
stages pass through untouched.

For staged compilation the densify predicate is derived from the layout:
a qubit set is densifiable when every qubit is either chunk-local or in
the stage's group (those are exactly the qubits with a position in the
group buffer). So are the window prices: ``pricing``
(:func:`repro.compile.cost.window_cost` unless a caller passes another)
prices launches on the stage's group buffer, ``chunk_qubits +
len(group_qubits)`` qubits of ``itemsize`` bytes, and the report carries
what the stage's ops are predicted to cost. This
module duck-types stages (``perm`` => permutation,
``group_qubits`` + ``gates`` => gate stage) instead of importing
:mod:`repro.pipeline`, keeping the compile layer import-cycle-free.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..circuits.gates import gate_is_diagonal
from .cost import Pricing, window_cost
from .hoist import Hoisted
from .ir import CompiledGateStage, CompiledPlan, CompileReport, as_ops
from .passes import fold_1q_runs, fuse_windows, merge_diagonal_runs
from .template import GateRecipe, PlanTemplate, Recipe, StageTemplate

__all__ = ["compile_gates", "compile_stage", "compile_stages"]


def _lower_batch(ops: Sequence[Any], slots: Sequence[int],
                 fusion: bool, can_densify, cost,
                 stats: Dict[str, int]) -> List[Recipe]:
    """The decisions for one batch: a recipe per op the batch compiles to.

    ``slots[i]`` is where op ``i``'s gate sits in the circuit (-1: nowhere);
    a parameterless gate is fixed by the shape, so it takes no slot either.
    ``cost`` prices the windows fusion may build. Off, every gate lowers
    1:1 (no gate is touched).
    """
    recipes: List[Recipe] = []
    for op, slot in zip(ops, slots):
        gate = op.to_gate()
        recipes.append(GateRecipe(op, slot if gate.params else -1,
                                  gate_is_diagonal(gate)))
    if fusion:
        cd = can_densify if can_densify is not None else (lambda qs: True)
        # The swaps a batch opens or ends on (the planner puts a stage's
        # qubit relocations at one of its ends) stay out of the passes: as
        # plain swaps they run as slice exchanges, inside a window each
        # would become a dense matmul over the whole buffer.
        start, end = 0, len(recipes)
        while end and recipes[end - 1].name == "swap":
            end -= 1
        while start < end and recipes[start].name == "swap":
            start += 1
        opening, recipes, closing = \
            recipes[:start], recipes[start:end], recipes[end:]
        recipes = fold_1q_runs(recipes, cd, stats)
        recipes = merge_diagonal_runs(recipes, stats=stats)
        recipes = fuse_windows(recipes, cost, cd, stats)
        recipes = opening + recipes + closing
    return recipes


def _new_stats(gates_in: int) -> Dict[str, int]:
    return {"gates_in": gates_in, "fused_1q": 0, "merged_diagonals": 0,
            "fused_windows": 0, "widest_window": 0}


def compile_gates(gates: Sequence[Any], fusion: bool = False,
                  can_densify=None, *, pricing: Pricing = window_cost,
                  num_qubits: Optional[int] = None,
                  itemsize: int = 16) -> Tuple[List[Any], Dict[str, int]]:
    """Lower one gate batch to ops; returns ``(ops, pass stats)``.

    Windows are priced on a ``2^num_qubits`` buffer (default: just wide
    enough for the batch's qubits) of ``itemsize``-byte amplitudes."""
    ops = as_ops(gates)
    stats = _new_stats(len(ops))
    if fusion:  # off: 1:1, nothing to decide
        m = num_qubits if num_qubits is not None else _spanned(ops)
        recipes = _lower_batch(ops, [-1] * len(ops), True, can_densify,
                               pricing(m, itemsize), stats)
        ops = [r.op(None) for r in recipes]
    stats["ops_out"] = len(ops)
    return ops, stats


def _is_permutation_stage(stage: Any) -> bool:
    return hasattr(stage, "perm")


def _is_gate_stage(stage: Any) -> bool:
    return hasattr(stage, "group_qubits") and hasattr(stage, "gates")


def _spanned(ops: Sequence[Any]) -> int:
    """Qubits of the narrowest buffer that holds every op's qubits."""
    return 1 + max((q for op in ops for q in op.qubits), default=0)


def _lower_stage(stage: Any, layout: Any = None, fusion: bool = False,
                 source_slots: Optional[Sequence[int]] = None,
                 pricing: Pricing = window_cost, itemsize: int = 16,
                 ) -> Tuple[Any, Dict[str, Any]]:
    """Lower one gate stage to its template (an already compiled stage is
    returned as it is). ``layout`` derives the densify predicate and, with
    ``itemsize``, the prices ``pricing`` puts on windows; the stage's
    ``slots`` (if the planner filled them in) say which circuit gate each
    of its gates takes its parameters from. When the stage was planned
    from a hoisted circuit, ``source_slots`` leads from there to the
    circuit that will be bound. ``stats["pass_seconds"]`` is what one
    group pass of the stage's ops is predicted to cost."""
    if isinstance(stage, CompiledGateStage):
        return stage, {**_new_stats(stage.source_gates),
                       "ops_out": len(stage.ops), "pass_seconds": 0.0}
    cd = None
    if layout is not None:
        group = frozenset(stage.group_qubits)
        cd = lambda qs, _g=group, _lay=layout: all(
            _lay.is_local(q) or q in _g for q in qs)
    ops = as_ops(stage.gates)
    # priced on the stage's group buffer (no layout: just wide enough)
    m = _spanned(ops) if layout is None \
        else layout.chunk_qubits + len(stage.group_qubits)
    cost = pricing(m, itemsize)
    slots = getattr(stage, "slots", ())
    if len(slots) != len(ops):  # a hand-built stage: every gate is its own
        slots = [-1] * len(ops)
    elif source_slots is not None:
        slots = [source_slots[s] if s >= 0 else -1 for s in slots]
    stats = _new_stats(len(ops))
    recipes = _lower_batch(ops, slots, fusion, cd, cost, stats)
    stats["ops_out"] = len(recipes)
    stats["pass_seconds"] = sum(cost((r,), r.num_qubits) for r in recipes)
    return (StageTemplate(tuple(stage.group_qubits), tuple(recipes),
                          source_gates=len(ops)), stats)


def compile_stage(stage: Any, layout: Any = None, fusion: bool = False, *,
                  pricing: Pricing = window_cost, itemsize: int = 16,
                  ) -> Tuple[CompiledGateStage, Dict[str, Any]]:
    """Lower one gate stage and bind it to its own gates."""
    lowered, stats = _lower_stage(stage, layout, fusion, None, pricing,
                                  itemsize)
    return _bound(lowered, None), stats


def _bound(lowered: Any, gates: Optional[Sequence[Any]]) -> Any:
    return lowered.bind(gates) if isinstance(lowered, StageTemplate) \
        else lowered


def _lower_stages(stages: Sequence[Any], layout: Any = None,
                  fusion: bool = False,
                  hoisted: Optional[Hoisted] = None,
                  direction: str = "forward",
                  pricing: Pricing = window_cost,
                  itemsize: int = 16) -> PlanTemplate:
    """Lower a planner stage list into a :class:`PlanTemplate`.

    Gate stages lower independently (stage boundaries are execution
    barriers — fusion never crosses them); permutation stages and already-
    compiled stages pass through.
    """
    report = CompileReport(fusion_enabled=fusion,
                           plan_direction=direction)
    kernel_stages = []
    source_slots = None
    if hoisted is not None:
        source_slots = hoisted.slots
        report.swaps_hoisted = hoisted.swaps
        report.front_permutation = hoisted.permutation
    out: List[Any] = []
    for si, stage in enumerate(stages):
        if _is_permutation_stage(stage) or not _is_gate_stage(stage):
            out.append(stage)
            continue
        lowered, stats = _lower_stage(stage, layout, fusion, source_slots,
                                      pricing, itemsize)
        out.append(lowered)
        groups = 1 if layout is None \
            else layout.num_chunks >> len(stage.group_qubits)
        kernel_stages.append((si, groups, stats["pass_seconds"]))
        report.num_gate_stages += 1
        report.gates_in += stats["gates_in"]
        report.ops_out += stats["ops_out"]
        report.fused_1q += stats["fused_1q"]
        report.merged_diagonals += stats["merged_diagonals"]
        report.fused_windows += stats["fused_windows"]
        report.widest_window = max(report.widest_window,
                                   stats["widest_window"])
    report.kernel_stages = tuple(kernel_stages)
    return PlanTemplate(tuple(out), report)


def compile_stages(stages: Any, layout: Any = None, fusion: bool = False,
                   telemetry: Any = None,
                   gates: Optional[Sequence[Any]] = None,
                   hoisted: Optional[Hoisted] = None,
                   direction: str = "forward",
                   pricing: Pricing = window_cost,
                   itemsize: int = 16) -> CompiledPlan:
    """Lower a planner stage list and bind it: the :class:`CompiledPlan`.

    ``stages`` may also be the :class:`PlanTemplate` of an earlier call
    (``CompiledPlan.template``), for a circuit of the same shape: nothing
    is decided again, the recipes are bound to ``gates`` — that circuit's
    gate list — and ``layout`` / ``fusion`` are not read. Either way the
    ops come out of the same evaluation, and ``report.seconds`` covers what
    this call did. ``gates=None`` binds to the gates the stages came with.

    ``hoisted`` says the stages were planned from ``hoisted.circuit``
    (:func:`~repro.compile.hoist.hoist_permutations`) while ``gates`` is
    the circuit the caller wrote: parameter slots are led back to it, and
    the report says what was hoisted. ``direction`` is which way the
    stages were planned (:func:`~repro.pipeline.plan_stages`); the report
    carries it as ``plan_direction``. ``pricing`` prices the windows
    fusion may build, on group buffers of ``itemsize``-byte amplitudes
    (:mod:`repro.compile.cost`); the report's ``kernel_stages`` is what
    it predicts each gate stage's ops cost.

    When ``telemetry`` is enabled, records ``compile.gates_in`` /
    ``compile.ops_out`` counters, the ``compile.fusion_ratio`` gauge and
    one ``compile`` tracer span.
    """
    t0 = time.perf_counter()
    template = stages if isinstance(stages, PlanTemplate) \
        else _lower_stages(stages, layout, fusion, hoisted, direction,
                           pricing, itemsize)
    bound = [_bound(s, gates) for s in template.stages]
    report = replace(template.report, seconds=time.perf_counter() - t0)
    if telemetry is not None and getattr(telemetry, "enabled", False):
        m = telemetry.metrics
        m.counter("compile.gates_in").inc(report.gates_in)
        m.counter("compile.ops_out").inc(report.ops_out)
        m.gauge("compile.fusion_ratio").set(report.fusion_ratio)
        telemetry.tracer.record("compile", report.seconds,
                                gates_in=report.gates_in,
                                ops_out=report.ops_out,
                                fusion=report.fusion_enabled,
                                stages=report.num_gate_stages)
    return CompiledPlan(bound, report, template)
