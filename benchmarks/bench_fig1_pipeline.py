"""Experiment F1 — paper Figure 1: the modularized, pipelined online stage.

Figure 1 shows decompression, CPU->GPU transfer, GPU compute, and
recompression overlapping in a pipeline. This benchmark reproduces it
quantitatively: for each workload it executes the chunked schedule, then
compares

* serial cost (sum of all measured stage durations — no overlap),
* the online stage's stopwatch time (what the run took), and
* a *modelled* makespan: the measured events replayed through
  :class:`repro.analysis.PipelineModel` with ``CODEC_LANES`` codec lanes
  (decompress/transfer/kernel/recompress overlapped across chunk groups on
  hardware this simulator does not have),

and prints the modelled per-resource Gantt chart that is the figure's
analogue. Columns from the model say "modelled"; the rest are stopwatch.
"""

from __future__ import annotations

import pytest

import time

from common import emit_result, print_banner, seconds, tight_config
from repro.analysis import PipelineModel, Table, format_seconds
from repro.circuits import get_workload
from repro.core import MemQSim

WORKLOADS = ["qft", "random", "supremacy", "grover"]
N = 12
#: codec lanes the model gives the host (one core drives the device, three
#: compress and decompress)
CODEC_LANES = 3
MODEL = PipelineModel(cpu_codec_lanes=CODEC_LANES)


def run_one(workload: str, n: int = N, chunk: int = 6):
    cfg = tight_config(chunk_qubits=chunk)
    res = MemQSim(cfg).run(get_workload(workload, n))
    return res


def generate_table() -> Table:
    t = Table(
        ["workload", "serial", "online (stopwatch)", "modelled makespan",
         "modelled overlap", "group passes", "stages"],
        title="Figure 1 (reproduced): serial stage sum vs modelled "
              "pipelined makespan",
    )
    for w in WORKLOADS:
        res = run_one(w)
        modelled = MODEL.makespan(res.timeline)
        t.add(
            w,
            format_seconds(res.serial_seconds),
            format_seconds(res.online_seconds),
            format_seconds(modelled),
            f"{res.serial_seconds / modelled:.2f}x",
            res.scheduler_stats.group_passes,
            res.plan.num_stages,
        )
    return t


def gantt_for(workload: str) -> str:
    res = run_one(workload)
    sched, _ = MODEL.schedule(res.timeline.rows[:400])
    return PipelineModel.gantt(sched)


# -- pytest-benchmark targets ---------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_pipelined_run(benchmark, workload):
    res = benchmark.pedantic(run_one, args=(workload, 10, 5), rounds=2, iterations=1)
    # Modelled overlap can never lose to serial; the stopwatch holds every
    # hop of an inline (workers=1) run.
    assert MODEL.makespan(res.timeline) <= res.serial_seconds + 1e-9
    assert res.serial_seconds <= res.online_seconds


def test_pipeline_overlap_exists(benchmark):
    """With many chunk groups, the model must find real overlap (>5%)."""
    res = benchmark.pedantic(run_one, args=("random", 12, 5), rounds=1, iterations=1)
    assert res.scheduler_stats.group_passes >= 8
    assert res.serial_seconds / MODEL.makespan(res.timeline) > 1.05


if __name__ == "__main__":
    print_banner(__doc__.splitlines()[0])
    t0 = time.perf_counter()
    table = generate_table()
    wall = time.perf_counter() - t0
    print(table.render())
    print("modelled Gantt (qft, first 400 events; D=decompress H=h2d "
          "K=kernel D2H=d C=compress):")
    print(gantt_for("qft"))
    emit_result("F1", title=__doc__.splitlines()[0],
                params={"num_qubits": N, "workloads": WORKLOADS,
                        "modelled_codec_lanes": CODEC_LANES},
                metrics={"wall_seconds": seconds(wall)},
                tables=[table])
