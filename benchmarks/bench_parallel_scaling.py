"""Experiment P1 — parallel codec scaling: serial vs --workers {1,2,4,N}.

End-to-end wall-clock and codec throughput for the same fixed circuit run
on the serial engine and on the overlapped engine over the
``repro.parallel`` codec worker pool at increasing worker counts (the
engine follows from the pool: ``workers > 1`` builds one; the 1-worker
overlapped arm hands in the inline pool). A codec-bound configuration
(szlike on a dense QFT state, device sized to force chunk streaming) is
where the paper's pipeline has the most to overlap, so it is where process
workers pay off.

Emits the canonical ``results/BENCH_P1.json`` bench record (full sweep
under ``extra.runs``). ``REPRO_FULL=1`` runs the paper-scale 24-qubit
configuration; the default size finishes in CI. Speedup is only expected
on multi-core hosts — the record's host fingerprint carries ``cpu_count``
so single-core results are interpretable.
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np
import pytest

from common import FULL, bench_telemetry, emit_result, print_banner, seconds, tight_config
from repro.analysis import Table, format_seconds
from repro.circuits import get_workload
from repro.core import MemQSim
from repro.parallel import CodecWorkerPool

N = 24 if FULL else 13
CHUNK = 12 if FULL else 7
WORKLOAD = "qft"


def _sim(workers: int, execution: str, telemetry=None) -> MemQSim:
    cfg = tight_config(chunk_qubits=CHUNK, workers=workers)
    pool = None
    if execution == "parallel" and workers == 1:
        # The overlapped engine without processes: the inline pool.
        pool = CodecWorkerPool(cfg.make_compressor(), workers=1)
    return MemQSim(cfg, telemetry=telemetry, codec_pool=pool)


def run_once(workers: int, execution: str, n: int = N):
    circ = get_workload(WORKLOAD, n)
    label = f"p1_{execution}_w{workers}_n{n}"
    with bench_telemetry(label) as tel:
        sim = _sim(workers, execution, tel)
        t0 = time.perf_counter()
        res = sim.run(circ)
        wall = time.perf_counter() - t0
    st = res.store.stats
    codec_s = st.compress_seconds + st.decompress_seconds
    codec_bytes = st.bytes_compressed + st.bytes_decompressed
    return {
        "execution": res.config_echo["execution"],
        "workers": res.config_echo["workers"],
        "wall_seconds": wall,
        "codec_seconds": codec_s,
        "codec_bytes": codec_bytes,
        "codec_mb_per_s": (codec_bytes / codec_s / 1e6) if codec_s else None,
        "norm": float(res.norm()),
    }


def generate_report(n: int = N, worker_counts=None) -> dict:
    cores = os.cpu_count() or 1
    if worker_counts is None:
        worker_counts = sorted({1, 2, 4, min(8, max(2, cores))})
    runs = [run_once(1, "serial", n)]
    runs += [run_once(w, "parallel", n) for w in worker_counts]
    serial_wall = runs[0]["wall_seconds"]
    for r in runs:
        r["speedup_vs_serial"] = serial_wall / r["wall_seconds"]
    return {
        "experiment": "P1 parallel codec scaling",
        "workload": WORKLOAD,
        "num_qubits": n,
        "chunk_qubits": CHUNK,
        "compressor": "szlike",
        "cpu_count": cores,
        "full": FULL,
        "runs": runs,
    }


def render_table(report: dict) -> Table:
    t = Table(
        ["mode", "workers", "wall", "codec s", "codec MB/s", "speedup"],
        title=(f"P1: parallel scaling, {report['workload']} "
               f"n={report['num_qubits']} (cores={report['cpu_count']})"),
    )
    for r in report["runs"]:
        t.add(
            r["execution"],
            str(r["workers"]),
            format_seconds(r["wall_seconds"]),
            format_seconds(r["codec_seconds"]),
            "-" if r["codec_mb_per_s"] is None else f"{r['codec_mb_per_s']:.1f}",
            f"{r['speedup_vs_serial']:.2f}x",
        )
    return t


# -- pytest-benchmark targets ---------------------------------------------------

def test_parallel_matches_serial_end_to_end(benchmark):
    circ = get_workload(WORKLOAD, 11)
    ref = _sim(1, "serial").run(circ).statevector()

    def run():
        return _sim(2, "parallel").run(circ)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    np.testing.assert_array_equal(res.statevector(), ref)


@pytest.mark.parametrize("workers", [1, 2])
def test_parallel_wall_clock(benchmark, workers):
    circ = get_workload(WORKLOAD, 11)
    sim = _sim(workers, "parallel")
    res = benchmark.pedantic(sim.run, args=(circ,), rounds=1, iterations=1)
    assert res.norm() == pytest.approx(1.0, abs=1e-3)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", "--qubits", type=int, default=N)
    ap.add_argument("--workers", type=int, nargs="*", default=None,
                    help="parallel worker counts to sweep (default 1 2 4 N)")
    args = ap.parse_args()

    print_banner(__doc__.splitlines()[0])
    report = generate_report(args.qubits, args.workers)
    table = render_table(report)
    print(table.render())
    parallel = [r for r in report["runs"] if r["execution"] == "parallel"]
    best = min(parallel, key=lambda r: r["wall_seconds"])
    emit_result("P1", title=__doc__.splitlines()[0],
                params={"num_qubits": report["num_qubits"],
                        "chunk_qubits": CHUNK, "workload": WORKLOAD,
                        "worker_counts": [r["workers"] for r in parallel]},
                metrics={
                    "wall_seconds_serial":
                        seconds(report["runs"][0]["wall_seconds"]),
                    "wall_seconds_parallel_best":
                        seconds(best["wall_seconds"]),
                    "best_speedup": {
                        "values": [best["speedup_vs_serial"]],
                        "direction": "higher"},
                },
                tables=[table],
                extra={"runs": report["runs"]})
