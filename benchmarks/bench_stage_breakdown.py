"""Experiment A5 — where the time goes: per-step breakdown of the online
stage (paper steps (1)-(6)).

Reports the share of decompress / H2D / kernel / D2H / recompress /
host-relabeling time per workload. The paper's step (5), idle cores doing
the codec work, is the codec lane (``workers > 1``; BENCH_P1 measures it).
"""

from __future__ import annotations

import pytest

import time

from common import emit_result, print_banner, seconds, tight_config
from repro.analysis import Table, format_seconds
from repro.circuits import get_workload
from repro.core import MemQSim

N = 12
CHUNK = 7
WORKLOAD = "qft"


def run_one(workload: str = WORKLOAD, n: int = N):
    cfg = tight_config(chunk_qubits=CHUNK)
    return MemQSim(cfg).run(get_workload(workload, n))


def breakdown_table(n: int = N) -> Table:
    t = Table(
        ["workload", "decompress", "h2d", "kernel", "d2h", "compress",
         "cpu_update", "total serial"],
        title=f"A5a: stage-time breakdown (n={n}, chunk=2^{CHUNK})",
    )
    for w in ["ghz", "qft", "supremacy"]:
        res = run_one(w, n)
        bd = res.stage_breakdown
        total = res.serial_seconds

        def pct(key):
            return f"{100 * bd.get(key, 0) / max(total, 1e-12):.0f}%"

        t.add(w, pct("decompress"), pct("h2d"), pct("kernel"), pct("d2h"),
              pct("compress"), pct("cpu_update"), format_seconds(total))
    return t


# -- pytest-benchmark targets ---------------------------------------------------

def test_breakdown_run(benchmark):
    res = benchmark.pedantic(run_one, args=(WORKLOAD, 10),
                             rounds=2, iterations=1)
    assert res.norm() == pytest.approx(1.0, abs=1e-3)


def test_codec_dominates_serial_time(benchmark):
    """On this substrate the codec is the heavy stage — which is exactly
    why the paper pipelines it behind transfers and kernels."""
    res = benchmark.pedantic(run_one, args=("qft", 11),
                             rounds=1, iterations=1)
    bd = res.stage_breakdown
    codec = bd.get("decompress", 0) + bd.get("compress", 0)
    assert codec > 0.3 * res.serial_seconds


if __name__ == "__main__":
    print_banner(__doc__.splitlines()[0])
    t0 = time.perf_counter()
    tables = [breakdown_table()]
    wall = time.perf_counter() - t0
    for t in tables:
        print(t.render())
    emit_result("A5", title=__doc__.splitlines()[0],
                params={"num_qubits": N, "chunk_qubits": CHUNK,
                        "workload": WORKLOAD},
                metrics={"wall_seconds": seconds(wall)},
                tables=tables)
