"""Experiment A3 — end-to-end: MEMQSim vs the dense baseline (SV-Sim
stand-in) across workloads.

The baseline comparison the paper positions against: same circuits, same
numerics, dense full-memory execution vs compressed chunked execution.
Reports dense time, MEMQSim's serial stage sum and online-stage stopwatch
time, memory, and fidelity (exactness for the lossless configuration).
"""

from __future__ import annotations

import numpy as np
import pytest

import time

from common import bench_telemetry, emit_result, print_banner, seconds, tight_config
from repro.analysis import Table, compare_states, format_bytes, format_seconds
from repro.circuits import get_workload
from repro.core import MemQSim
from repro.statevector import DenseSimulator

N = 12
WORKLOADS = ["ghz", "qft", "grover", "qaoa", "supremacy"]


def run_pair(workload: str, n: int = N, chunk: int = 8, codec="szlike",
             eb=1e-6):
    circ = get_workload(workload, n)
    dense = DenseSimulator()
    ref = dense.run(circ)
    cfg = tight_config(chunk_qubits=chunk,
                       compressor=codec,
                       compressor_options={"error_bound": eb} if codec == "szlike" else {})
    with bench_telemetry(f"a3_{workload}_n{n}") as tel:
        res = MemQSim(cfg, telemetry=tel).run(circ)
    fid = compare_states(ref.data, res.statevector()).fidelity if n <= 16 else None
    return res, dense.last_stats, fid


def generate_table(n: int = N) -> Table:
    t = Table(
        ["workload", "dense time", "memq serial", "memq online",
         "dense mem", "memq peak mem", "fidelity"],
        title=f"A3: MEMQSim vs dense baseline at n={n}",
    )
    for w in WORKLOADS:
        res, dstats, fid = run_pair(w, n)
        memq_mem = (res.tracker.peak("chunk_store")
                    + res.tracker.peak("host_buffers")
                    + res.peak_device_bytes)
        t.add(
            w,
            format_seconds(dstats.wall_time_s),
            format_seconds(res.serial_seconds),
            format_seconds(res.online_seconds),
            format_bytes(dstats.peak_bytes),
            format_bytes(memq_mem),
            "exact" if fid is None else f"{fid:.9f}",
        )
    return t


# -- pytest-benchmark targets ---------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_dense_baseline(benchmark, workload):
    circ = get_workload(workload, 11)
    sim = DenseSimulator()
    sv = benchmark(sim.run, circ)
    assert sv.norm() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("workload", ["ghz", "qft", "supremacy"])
def test_memqsim_end_to_end(benchmark, workload):
    circ = get_workload(workload, 11)
    sim = MemQSim(tight_config(chunk_qubits=7))
    res = benchmark.pedantic(sim.run, args=(circ,), rounds=2, iterations=1)
    assert res.norm() == pytest.approx(1.0, abs=1e-3)


def test_lossless_exactness_end_to_end(benchmark):
    def run():
        return run_pair("qft", 11, chunk=7, codec="zlib")

    res, _, fid = benchmark.pedantic(run, rounds=1, iterations=1)
    assert fid == pytest.approx(1.0, abs=1e-12)


if __name__ == "__main__":
    print_banner(__doc__.splitlines()[0])
    t0 = time.perf_counter()
    table = generate_table()
    wall = time.perf_counter() - t0
    print(table.render())
    emit_result("A3", title=__doc__.splitlines()[0],
                params={"num_qubits": N, "workloads": WORKLOADS},
                metrics={"wall_seconds": seconds(wall)},
                tables=[table])
