"""Experiment A1 — design challenge (2): compression granularity.

The paper: "a coarser granularity could precipitate a significant memory
footprint issue, while excessively fine granularity could lead to a lower
compression ratio" (and higher overhead). This sweep quantifies both sides:
chunk size from 2^4 to 2^10 amplitudes against

* store compression ratio (fine chunks pay per-blob headers and lose
  cross-chunk redundancy),
* codec + transfer overhead per amplitude (fine chunks multiply per-call
  costs),
* uncompressed working-set size (coarse chunks need bigger buffers —
  the memory-footprint side of the trade).
"""

from __future__ import annotations

import statistics
import time

import pytest

from common import emit_result, print_banner, seconds, tight_config
from repro.analysis import Table, format_bytes, format_seconds
from repro.circuits import get_workload
from repro.core import MemQSim

N = 12
CHUNKS = [4, 5, 6, 7, 8, 9, 10]
WORKLOAD = "qft"
#: interleaved fine / coarse rounds behind the timing assert
TIMING_ROUNDS = 5


def run_one(chunk_qubits: int, workload: str = WORKLOAD, n: int = N):
    cfg = tight_config(chunk_qubits=chunk_qubits,
                       compressor_options={"error_bound": 1e-6})
    return MemQSim(cfg).run(get_workload(workload, n))


def generate_table(n: int = N) -> Table:
    t = Table(
        ["chunk amps", "store ratio", "serial", "online (stopwatch)",
         "codec time", "group passes", "working set"],
        title=f"A1: granularity sweep ({WORKLOAD}, n={n}, eb=1e-6)",
    )
    for c in CHUNKS:
        res = run_one(c, n=n)
        bd = res.stage_breakdown
        codec = bd.get("decompress", 0) + bd.get("compress", 0)
        t.add(
            1 << c,
            f"{res.compression_ratio:.1f}x",
            format_seconds(res.serial_seconds),
            format_seconds(res.online_seconds),
            format_seconds(codec),
            res.scheduler_stats.group_passes,
            format_bytes(res.tracker.peak("host_buffers")),
        )
    return t


# -- pytest-benchmark targets ---------------------------------------------------

@pytest.mark.parametrize("chunk", [4, 6, 8])
def test_granularity(benchmark, chunk):
    res = benchmark.pedantic(run_one, args=(chunk, WORKLOAD, 10),
                             rounds=2, iterations=1)
    assert res.norm() == pytest.approx(1.0, abs=1e-3)


def test_fine_granularity_costs_more_time(benchmark):
    def rounds():
        fine, coarse = [], []
        for _ in range(TIMING_ROUNDS):  # interleaved: drift hits both
            fine.append(run_one(4, n=10).serial_seconds)
            coarse.append(run_one(8, n=10).serial_seconds)
        return statistics.median(fine), statistics.median(coarse)

    fine, coarse = benchmark.pedantic(rounds, rounds=1, iterations=1)
    # Fine chunks multiply per-call overhead (paper's granularity warning).
    assert fine > coarse


def test_coarse_granularity_needs_bigger_buffers(benchmark):
    def both():
        return run_one(4, n=10), run_one(8, n=10)

    fine, coarse = benchmark.pedantic(both, rounds=1, iterations=1)
    assert coarse.tracker.peak("host_buffers") > fine.tracker.peak("host_buffers")


if __name__ == "__main__":
    print_banner(__doc__.splitlines()[0])
    t0 = time.perf_counter()
    table = generate_table()
    wall = time.perf_counter() - t0
    print(table.render())
    print("paper: fine granularity -> lower ratio & higher overhead;")
    print("coarse granularity -> larger uncompressed working set.")
    emit_result("A1", title=__doc__.splitlines()[0],
                params={"num_qubits": N, "chunk_qubits": CHUNKS,
                        "workload": WORKLOAD},
                metrics={"wall_seconds": seconds(wall)},
                tables=[table])
