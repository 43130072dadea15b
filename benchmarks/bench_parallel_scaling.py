"""Experiment P1 — parallel codec scaling: --workers {1,2,4,N}.

End-to-end wall-clock and codec throughput for the same fixed circuit at
increasing worker counts. There is one stage engine; ``workers`` sizes the
codec lane behind its chunk store (1 = no pool, the codec runs inline;
``> 1`` = the run's own ``repro.parallel`` process pool). A codec-bound
configuration (szlike on a dense QFT state, device sized to force chunk
streaming) is where the paper's pipeline has the most to overlap, so it is
where process workers pay off.

Each worker count is timed ``REPEATS`` times, the counts interleaved so a
drifting host hits them alike; the record gates the per-count repeat
lists. Emits the canonical ``results/BENCH_P1.json`` bench record (full
sweep under ``extra.runs``). ``REPRO_FULL=1`` runs the paper-scale
24-qubit configuration; the default size finishes in CI. Speedup is only
expected on multi-core hosts — the record's host fingerprint carries
``cpu_count`` so single-core results are interpretable.
"""

from __future__ import annotations

import argparse
import os
import statistics
import time

import numpy as np
import pytest

from common import FULL, bench_telemetry, emit_result, print_banner, seconds, tight_config
from repro.analysis import Table, format_seconds
from repro.circuits import get_workload
from repro.core import MemQSim

N = 24 if FULL else 13
CHUNK = 12 if FULL else 7
WORKLOAD = "qft"
REPEATS = 1 if FULL else 5


def _sim(workers: int, telemetry=None) -> MemQSim:
    return MemQSim(tight_config(chunk_qubits=CHUNK, workers=workers),
                   telemetry=telemetry)


def run_once(workers: int, n: int = N):
    circ = get_workload(WORKLOAD, n)
    with bench_telemetry(f"p1_w{workers}_n{n}") as tel:
        sim = _sim(workers, tel)
        t0 = time.perf_counter()
        res = sim.run(circ)
        wall = time.perf_counter() - t0
    st = res.store.stats
    codec_s = st.compress_seconds + st.decompress_seconds
    codec_bytes = st.bytes_compressed + st.bytes_decompressed
    return {
        "workers": res.config_echo["workers"],
        "wall_seconds": wall,
        "codec_seconds": codec_s,
        "codec_bytes": codec_bytes,
        "codec_mb_per_s": (codec_bytes / codec_s / 1e6) if codec_s else None,
        "norm": float(res.norm()),
    }


def generate_report(n: int = N, worker_counts=None,
                    repeats: int = REPEATS) -> dict:
    cores = os.cpu_count() or 1
    if worker_counts is None:
        worker_counts = sorted({1, 2, 4, min(8, max(2, cores))})
    worker_counts = sorted(set(worker_counts) | {1})
    samples = {w: [] for w in worker_counts}
    for _ in range(repeats):
        for w in worker_counts:
            samples[w].append(run_once(w, n))
    runs = []
    for w in worker_counts:
        walls = [s["wall_seconds"] for s in samples[w]]
        mid = min(samples[w],
                  key=lambda s: abs(s["wall_seconds"]
                                    - statistics.median(walls)))
        runs.append({**mid, "wall_seconds": statistics.median(walls),
                     "wall_repeats": walls})
    base = runs[0]["wall_seconds"]
    for r in runs:
        r["speedup_vs_workers1"] = base / r["wall_seconds"]
    return {
        "experiment": "P1 parallel codec scaling",
        "workload": WORKLOAD,
        "num_qubits": n,
        "chunk_qubits": CHUNK,
        "compressor": "szlike",
        "cpu_count": cores,
        "full": FULL,
        "repeats": repeats,
        "runs": runs,
    }


def render_table(report: dict) -> Table:
    t = Table(
        ["workers", "wall (median)", "min", "max", "codec s", "codec MB/s",
         "speedup"],
        title=(f"P1: parallel scaling, {report['workload']} "
               f"n={report['num_qubits']} (cores={report['cpu_count']}, "
               f"{report['repeats']} repeats)"),
    )
    for r in report["runs"]:
        t.add(
            str(r["workers"]),
            format_seconds(r["wall_seconds"]),
            format_seconds(min(r["wall_repeats"])),
            format_seconds(max(r["wall_repeats"])),
            format_seconds(r["codec_seconds"]),
            "-" if r["codec_mb_per_s"] is None else f"{r['codec_mb_per_s']:.1f}",
            f"{r['speedup_vs_workers1']:.2f}x",
        )
    return t


# -- pytest-benchmark targets ---------------------------------------------------

def test_parallel_matches_serial_end_to_end(benchmark):
    circ = get_workload(WORKLOAD, 11)
    ref = _sim(1).run(circ).statevector()

    def run():
        return _sim(2).run(circ)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    np.testing.assert_array_equal(res.statevector(), ref)


@pytest.mark.parametrize("workers", [1, 2])
def test_parallel_wall_clock(benchmark, workers):
    circ = get_workload(WORKLOAD, 11)
    sim = _sim(workers)
    res = benchmark.pedantic(sim.run, args=(circ,), rounds=1, iterations=1)
    assert res.norm() == pytest.approx(1.0, abs=1e-3)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", "--qubits", type=int, default=N)
    ap.add_argument("--workers", type=int, nargs="*", default=None,
                    help="worker counts to sweep besides 1 (default 2 4 N)")
    ap.add_argument("--repeats", type=int, default=REPEATS)
    args = ap.parse_args()

    print_banner(__doc__.splitlines()[0])
    report = generate_report(args.qubits, args.workers, args.repeats)
    table = render_table(report)
    print(table.render())
    runs = report["runs"]
    pooled = min(runs[1:], key=lambda r: r["wall_seconds"])
    emit_result("P1", title=__doc__.splitlines()[0],
                params={"num_qubits": report["num_qubits"],
                        "chunk_qubits": CHUNK, "workload": WORKLOAD,
                        "worker_counts": [r["workers"] for r in runs],
                        "repeats": report["repeats"]},
                metrics={
                    **{f"wall_seconds_workers{r['workers']}":
                       seconds(*r["wall_repeats"]) for r in runs},
                    "best_pool_speedup": {
                        "values": [pooled["speedup_vs_workers1"]],
                        "direction": "higher"},
                },
                tables=[table],
                extra={"runs": runs})
