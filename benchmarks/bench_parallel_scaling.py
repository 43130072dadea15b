"""Experiment P1 — codec lanes: wall time at --workers {1,2,4}, on both sides of auto_workers' threshold.

There is one stage engine; ``workers`` sizes the codec lane behind its
chunk store (1 = no lane, the codec runs inline; ``> 1`` = that many lane
threads calling the one codec, overlapping each other and the kernel).
Two rows, one on each side of the 0.5 ms-per-chunk threshold
``auto_workers`` fans out at:

* ``qft13_c7`` — ``qft(13)`` on 2 KiB chunks (128 amplitudes), the row this
  experiment always had: every codec call is a fixed cost of ~100 µs of
  numpy dispatch, too short for a lane's hand-off to pay;
* ``brickwork18_c14`` — BENCH_E2E's tilted supremacy brickwork at n 18 on
  256 KiB chunks: milliseconds per codec call, most of it in numpy and
  ``zlib`` with the GIL released, so two lanes overlap.

Both under ``szlike`` 1e-6 on a device that forces streaming (groups of
two chunks). Runs are interleaved (1, 2, 4, 1, 2, 4, ...) so drift hits
every count alike; each run builds a fresh ``MemQSim`` (plan, compile and
the lane threads are inside the wall time). Per count: median and
interquartile range of the wall time, and the codec seconds and raw bytes
the run's timeline booked (compress + decompress hops, timed on the lane
that ran them). BLAS runs on one thread, as in benchmarks/e2e.

Emits the canonical ``results/BENCH_P1.json`` record. ``REPRO_FULL=1``
adds ``qft(24)`` on 64 KiB chunks.
"""

from __future__ import annotations

import os

# One BLAS thread, as benchmarks/e2e and FU1: the lossy default fuses
# gates, and a threaded small zgemm stalls a CPU-quota'd host.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import statistics
import time

import numpy as np
import pytest

from common import (FULL, bench_telemetry, circuit_of, emit_result,
                    print_banner, quartile_range, seconds, tight_config)
from repro.analysis import Table, format_seconds
from repro.circuits import qft
from repro.core import MemQSim
from repro.device.timeline import Stage

#: interleaved repeats per worker count — what the record was made with
REPEATS = 7
#: row -> (circuit family, qubits, chunk qubits, worker counts)
ROWS = {
    "qft13_c7": ("qft", 13, 7, (1, 2, 4)),
    "brickwork18_c14": ("brickwork", 18, 14, (1, 2)),
}
if FULL:
    ROWS["qft24_c12"] = ("qft", 24, 12, (1, 2, 4))
CODEC = (Stage.COMPRESS, Stage.DECOMPRESS)


def run_once(row: str, workers: int) -> dict:
    family, n, chunk, _counts = ROWS[row]
    circ = circuit_of(family, n)
    with bench_telemetry(f"p1_{row}_w{workers}") as tel:
        sim = MemQSim(tight_config(chunk_qubits=chunk, workers=workers),
                      telemetry=tel)
        t0 = time.perf_counter()
        res = sim.run(circ)
        wall = time.perf_counter() - t0
    tl = res.timeline
    codec_s = sum(tl.serial_seconds(stage) for stage in CODEC)
    codec_bytes = sum(r[5] for r in tl.rows if r[0] in CODEC)  # nbytes
    return {
        "workers": res.config_echo["workers"],
        "wall_seconds": wall,
        "codec_seconds": codec_s,
        "codec_bytes": codec_bytes,
        "codec_mb_per_s": (codec_bytes / codec_s / 1e6) if codec_s else None,
        "norm": float(res.norm()),
    }


def generate_report(repeats: int = REPEATS) -> dict:
    samples = {(row, w): [] for row in ROWS for w in ROWS[row][3]}
    for _ in range(repeats):  # interleaved so drift hits every count alike
        for row, w in samples:
            samples[row, w].append(run_once(row, w))
    out = {}
    for row in ROWS:
        family, n, chunk, counts = ROWS[row]
        arms = []
        for w in counts:
            runs = samples[row, w]
            walls = [r["wall_seconds"] for r in runs]
            arms.append({
                "workers": w,
                "wall_seconds": statistics.median(walls),
                "wall_iqr": quartile_range(walls),
                "wall_repeats": walls,
                "codec_seconds": statistics.median(
                    r["codec_seconds"] for r in runs),
                "codec_mb_per_s": statistics.median(
                    r["codec_mb_per_s"] for r in runs),
            })
        for arm in arms:
            arm["vs_workers1"] = arm["wall_seconds"] / arms[0]["wall_seconds"]
        out[row] = {"family": family, "num_qubits": n, "chunk_qubits": chunk,
                    "chunk_bytes": 16 << chunk, "arms": arms}
    return {"experiment": "P1 codec lanes", "compressor": "szlike",
            "cpu_count": os.cpu_count() or 1, "full": FULL,
            "repeats": repeats, "rows": out}


def render_table(report: dict) -> Table:
    t = Table(
        ["row", "workers", "wall (median)", "iqr", "codec s", "codec MB/s",
         "vs workers 1"],
        title=(f"P1: codec lanes (cores={report['cpu_count']}, "
               f"{report['repeats']} interleaved repeats)"),
    )
    for row, rec in report["rows"].items():
        for arm in rec["arms"]:
            t.add(row, str(arm["workers"]),
                  format_seconds(arm["wall_seconds"]),
                  format_seconds(arm["wall_iqr"]),
                  format_seconds(arm["codec_seconds"]),
                  f"{arm['codec_mb_per_s']:.1f}",
                  f"{arm['vs_workers1']:.2f}x")
    return t


# -- pytest-benchmark targets ---------------------------------------------------

def test_parallel_matches_serial_end_to_end(benchmark):
    circ = qft(11)
    ref = MemQSim(tight_config(chunk_qubits=7)).run(circ).statevector()

    def run():
        return MemQSim(tight_config(chunk_qubits=7, workers=2)).run(circ)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    np.testing.assert_array_equal(res.statevector(), ref)


@pytest.mark.parametrize("workers", [1, 2])
def test_parallel_wall_clock(benchmark, workers):
    sim = MemQSim(tight_config(chunk_qubits=7, workers=workers))
    res = benchmark.pedantic(sim.run, args=(qft(11),), rounds=1, iterations=1)
    assert res.norm() == pytest.approx(1.0, abs=1e-3)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=REPEATS)
    args = ap.parse_args()

    print_banner(__doc__.splitlines()[0])
    report = generate_report(args.repeats)
    table = render_table(report)
    print(table.render())
    metrics = {}
    for row, rec in report["rows"].items():
        for arm in rec["arms"]:
            metrics[f"{row}_wall_seconds_workers{arm['workers']}"] = \
                seconds(*arm["wall_repeats"])
    emit_result("P1", title=__doc__.splitlines()[0],
                params={"rows": {row: ROWS[row][:3] for row in ROWS},
                        "worker_counts": {row: list(ROWS[row][3])
                                          for row in ROWS},
                        "repeats": report["repeats"]},
                metrics=metrics,
                tables=[table],
                extra={"rows": report["rows"]})
