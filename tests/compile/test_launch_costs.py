"""The launch-cost model against its record, results/BENCH_FU2.json.

* The committed constants are the ones the record's fit produced.
* At every buffer size and itemsize the four BENCH_E2E workloads run
  their gate stages at, the model ranks the generic widths 2-5 the way
  the record's medians do, wherever the record resolves the order (the gap
  between two medians is wider than both quartile ranges).
* :func:`~repro.compile.cost.launch_kind` names, from a recipe's shape, the
  kernel :func:`~repro.statevector.kernels.prepare_launch` gives its op.
"""

import importlib.util
import itertools
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.circuits import get_workload
from repro.compile import compile_stages, launch_seconds
from repro.compile.cost import LAUNCH_CONSTANTS, launch_kind
from repro.core.precision import compute_dtype
from repro.memory import ChunkLayout
from repro.pipeline import plan_stages
from repro.statevector.kernels import prepare_launch

ROOT = Path(__file__).resolve().parents[2]
RECORD = json.loads((ROOT / "results/BENCH_FU2.json").read_text())["extra"]


def load_e2e_workloads():
    spec = importlib.util.spec_from_file_location(
        "e2e_workloads", ROOT / "benchmarks/e2e/workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


class _NoTracer:
    def span(self, *args, **kwargs):
        return nullcontext()


def workload_buffers():
    """``{(m, itemsize)}`` of every gate stage the four workloads run."""
    used = set()
    for workload in load_e2e_workloads():
        workload.prepare(0, False, _NoTracer())
        result = workload.op().result
        layout = result.store.layout
        itemsize = compute_dtype(result.config_echo["precision"]).itemsize
        for stage in result.compiled_stages:
            if hasattr(stage, "ops"):
                used.add((layout.chunk_qubits + len(stage.group_qubits),
                          itemsize))
    return sorted(used)


def test_constants_are_the_records_fit():
    assert {cell: {int(size): tuple(pair) for size, pair in sizes.items()}
            for cell, sizes in RECORD["fitted"].items()} == LAUNCH_CONSTANTS


def test_the_model_ranks_widths_as_the_record_does():
    rows = {(r["itemsize"], r["m"], r["kind"], r["width"]): r
            for r in RECORD["rows"]}
    buffers = workload_buffers()
    assert (11, 16) in buffers and (12, 8) in buffers  # dense_lossy, spill
    for m, itemsize in buffers:
        for a, b in itertools.combinations(range(2, 6), 2):
            ra, rb = rows[itemsize, m, "generic", a], rows[itemsize, m,
                                                           "generic", b]
            gap = ra["median_s"] - rb["median_s"]
            if abs(gap) <= max(ra["iqr_s"], rb["iqr_s"]):
                continue  # the record does not tell them apart
            modelled = (launch_seconds("generic", a, m, itemsize)
                        - launch_seconds("generic", b, m, itemsize))
            assert (gap < 0) == (modelled < 0), (m, itemsize, a, b)


@pytest.mark.parametrize("workload", ["qft", "vqe", "supremacy", "qaoa",
                                      "grover"])
@pytest.mark.parametrize("fusion", [False, True])
def test_launch_kind_is_the_prepared_kernel(workload, fusion):
    circuit = get_workload(workload, 9)
    layout = ChunkLayout(9, 5)
    plan = compile_stages(plan_stages(circuit, layout, 2), layout, fusion=fusion)
    for lowered, bound in zip(plan.template.stages, plan.stages):
        if not hasattr(bound, "ops"):
            continue
        for recipe, op in zip(lowered.recipes, bound.ops):
            kind, width = launch_kind(recipe)
            # (the kind does not depend on the buffer: the whole register)
            launched = prepare_launch(op.to_gate(), 9).kind
            # a window whose product happens to be diagonal (its value,
            # not its shape) launches as one
            assert launched == kind or (kind, launched) == (
                "generic", "diagonal"), (recipe, launched)
            assert width == len(op.qubits)
