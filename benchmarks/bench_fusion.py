"""Experiment FU1 — gate fusion: kernel launches, kernel seconds and wall time per arm.

The compile layer (``repro.compile``) folds 1q runs, merges diagonal runs
and fuses gate windows into dense ``<= 2^k``-wide unitaries before the
online stage runs. Every kernel launch is one sweep over the group buffer,
so fewer-but-fatter ops cut the sweeps roughly by the compile layer's
fusion ratio while producing the same state.

This is the record behind ``fuse_gates`` being *derived* (on under a lossy
codec, off under a lossless one — DESIGN.md "Derived, not configured").
Three families, each at a CI size and at the size the claim is made (n 18,
256 KiB group buffers):

* ``qft`` under ``zlib`` — explicit off vs explicit on. Lossless, so the
  derived value is *off*: this row shows what bit-identity with
  ``DenseSimulator`` costs.
* the tilted supremacy brickwork under ``szlike`` 1e-6 (BENCH_E2E's
  ``dense_lossy`` circuit) — explicit off vs the derived value, which is
  *on*: a dense state, where every launch sweeps a full buffer. This is
  where fusion pays.
* ``qft`` under ``szlike`` 1e-6 — explicit off vs derived: the other side
  of the lossy default, a structured state whose ops are mostly diagonal
  (cheap launches, little for fusion to merge into fewer sweeps). This row
  says what the default costs or gains where it was not chosen for.

Arms are interleaved (off / on / off / ...) so drift hits both equally;
every run builds a fresh ``MemQSim`` (plan + compile are inside the wall
time). Per arm: median and interquartile range of ``wall_seconds`` and of
``kernel_s`` (the timeline's KERNEL hops), kernel launches (scheduler
``gates_applied``: ops launched, summed over group passes), ops out.

Emits the canonical ``results/BENCH_FU1.json`` record. ``REPRO_FULL=1``
adds every family at n 22 (chunk 11). BLAS runs on one thread (see below;
``OPENBLAS_NUM_THREADS=2 python bench_fusion.py`` shows what a second
thread does to the fused arms on a throttled host).
"""

from __future__ import annotations

import os

# One BLAS thread unless the caller says otherwise, as benchmarks/e2e: a
# fused op is a small-M zgemm, which OpenBLAS threads from ~2^11 columns up,
# and on a CPU-quota'd host the second thread turns every such call into a
# scheduler stall (8 ms each on the recording host: qft(18) fused kernel
# 4.4 -> 37 ms). That is the host's BLAS set-up, not the kernel.
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

#: interleaved repeats per arm — what the committed record was made with
REPEATS = 9
MAX_FUSE = 3
_SZLIKE = {"compressor": "szlike", "compressor_options": {"error_bound": 1e-6}}
#: family -> (codec options, {arm: fuse_gates})
FAMILIES = {
    "qft": ({"compressor": "zlib", "compressor_options": {}},
            {"off": False, "on": True}),
    "brickwork": (_SZLIKE, {"off": False, "derived": None}),
    "qft_lossy": (_SZLIKE, {"off": False, "derived": None}),
}
#: (family, n, chunk_qubits): groups of two chunks, so the group buffer is
#: 2^(chunk_qubits + 1) amplitudes — 4 KiB at the CI size, 256 KiB at n 18
CASES = [(family, n, c) for family in FAMILIES
         for n, c in [(13, 7), (18, 13)] + ([(22, 11)] if FULL else [])]


def _config(family: str, chunk_qubits: int, fuse_gates,
            max_fuse_qubits: int = MAX_FUSE):
    codec, _arms = FAMILIES[family]
    return tight_config(chunk_qubits=chunk_qubits, fuse_gates=fuse_gates,
                        max_fuse_qubits=max_fuse_qubits, **codec)


def run_once(family: str, n: int, chunk_qubits: int, arm: str,
             max_fuse_qubits: int = MAX_FUSE):
    circ = circuit_of(family, n)
    cfg = _config(family, chunk_qubits, FAMILIES[family][1][arm],
                  max_fuse_qubits)
    with bench_telemetry(f"fu1_{family}{n}_{arm}") as tel:
        t0 = time.perf_counter()
        res = MemQSim(cfg, telemetry=tel).run(circ)
        wall = time.perf_counter() - t0
    cr = res.compile_report
    return {
        "arm": arm,
        "fuse_gates": res.config_echo["fuse_gates"],
        "wall_seconds": wall,
        "kernel_s": res.timeline.serial_seconds(Stage.KERNEL),
        "kernel_launches": res.scheduler_stats.gates_applied,
        "group_passes": res.scheduler_stats.group_passes,
        "gates_in": cr.gates_in,
        "ops_out": cr.ops_out,
        "fusion_ratio": cr.fusion_ratio,
        "compile_seconds": cr.seconds,
        "norm": float(res.norm()),
    }, res


def _max_deviation(a, b) -> float:
    """Max |amplitude difference| between two results (streamed)."""
    worst = 0.0
    for k in range(a.store.layout.num_chunks):
        d = np.abs(a.store.load(k) - b.store.load(k))
        worst = max(worst, float(d.max()) if d.size else 0.0)
    return worst


def measure_case(family: str, n: int, chunk_qubits: int,
                 max_fuse_qubits: int = MAX_FUSE) -> dict:
    arms = list(FAMILIES[family][1])
    runs = {arm: [] for arm in arms}
    last = {}
    for _ in range(REPEATS):  # interleaved so drift hits both arms equally
        for arm in arms:
            row, last[arm] = run_once(family, n, chunk_qubits, arm,
                                      max_fuse_qubits)
            runs[arm].append(row)
    plain, fused = (runs[arm] for arm in arms)

    def spread(rows, key):
        values = [r[key] for r in rows]
        return {"median": statistics.median(values),
                "iqr": quartile_range(values)}

    summary = {arm: {"wall_seconds": spread(runs[arm], "wall_seconds"),
                     "kernel_s": spread(runs[arm], "kernel_s")}
               for arm in arms}
    wall = [summary[arm]["wall_seconds"] for arm in arms]
    return {
        "family": family, "num_qubits": n, "chunk_qubits": chunk_qubits,
        "group_bytes": 16 << (chunk_qubits + 1),
        "codec": FAMILIES[family][0]["compressor"],
        "arms": arms, "repeats": REPEATS, "runs": runs, "summary": summary,
        "kernel_launch_reduction": plain[0]["kernel_launches"]
        / max(fused[0]["kernel_launches"], 1),
        "kernel_speedup": summary[arms[0]]["kernel_s"]["median"]
        / summary[arms[1]]["kernel_s"]["median"],
        "wall_speedup": wall[0]["median"] / wall[1]["median"],
        # whether the wall A/B says anything: the gap against the spread
        "resolved": abs(wall[0]["median"] - wall[1]["median"])
        > max(w["iqr"] for w in wall),
        "max_amplitude_deviation": _max_deviation(*(last[a] for a in arms)),
    }


def generate_report(max_fuse_qubits: int = MAX_FUSE) -> dict:
    return {
        "experiment": "FU1 gate fusion",
        "max_fuse_qubits": max_fuse_qubits,
        "cases": [measure_case(family, n, c, max_fuse_qubits)
                  for family, n, c in CASES],
    }


def render_table(report: dict) -> Table:
    t = Table(
        ["circuit (codec)", "n / group", "arm", "ops out", "launches",
         "kernel median", "kernel iqr", "wall median", "wall iqr"],
        title=f"FU1: gate fusion, max_fuse_qubits={report['max_fuse_qubits']}",
    )
    for case in report["cases"]:
        for arm in case["arms"]:
            first = case["runs"][arm][0]
            s = case["summary"][arm]
            t.add(
                f"{case['family']} ({case['codec']})",
                f"{case['num_qubits']} / {case['group_bytes'] >> 10} KiB",
                f"{arm} ({'on' if first['fuse_gates'] else 'off'})",
                f"{first['ops_out']} of {first['gates_in']}",
                str(first["kernel_launches"]),
                format_seconds(s["kernel_s"]["median"]),
                format_seconds(s["kernel_s"]["iqr"]),
                format_seconds(s["wall_seconds"]["median"]),
                format_seconds(s["wall_seconds"]["iqr"]),
            )
    return t


# -- pytest-benchmark targets ---------------------------------------------------

def test_fused_matches_unfused_end_to_end(benchmark):
    circ = qft(11)
    ref = MemQSim(_config("qft", 7, False)).run(circ).statevector()

    def run():
        return MemQSim(_config("qft", 7, True)).run(circ)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    np.testing.assert_allclose(res.statevector(), ref, atol=1e-10)


@pytest.mark.parametrize("family, arm", [
    (family, arm) for family, (_codec, arms) in FAMILIES.items()
    for arm in arms])
def test_fusion_wall_clock(benchmark, family, arm):
    row, _res = benchmark.pedantic(run_once, args=(family, 11, 7, arm),
                                   rounds=1, iterations=1)
    assert row["norm"] == pytest.approx(1.0, abs=1e-3)
    assert row["fuse_gates"] is (arm != "off")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-fuse-qubits", type=int, default=MAX_FUSE)
    args = ap.parse_args()

    print_banner(__doc__.splitlines()[0])
    report = generate_report(args.max_fuse_qubits)
    table = render_table(report)
    print(table.render())
    metrics = {}
    for case in report["cases"]:
        tag = f"{case['family']}{case['num_qubits']}"
        print(f"{tag}: {case['kernel_launch_reduction']:.2f}x fewer launches, "
              f"kernel {case['kernel_speedup']:.2f}x, wall "
              f"{case['wall_speedup']:.2f}x "
              f"({'resolved' if case['resolved'] else 'inside the IQR'}), "
              f"max amplitude deviation "
              f"{case['max_amplitude_deviation']:.2e}")
        for arm in case["arms"]:
            metrics[f"wall_seconds_{tag}_{arm}"] = seconds(
                *(r["wall_seconds"] for r in case["runs"][arm]))
            metrics[f"kernel_seconds_{tag}_{arm}"] = seconds(
                *(r["kernel_s"] for r in case["runs"][arm]))
        # counts: they repeat exactly, so they gate
        metrics[f"kernel_launch_reduction_{tag}"] = {
            "values": [case["kernel_launch_reduction"]],
            "direction": "higher"}
    emit_result("FU1", title=__doc__.splitlines()[0],
                params={"cases": [list(c) for c in CASES],
                        "repeats": REPEATS,
                        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
                        "max_fuse_qubits": args.max_fuse_qubits},
                metrics=metrics, tables=[table],
                extra={"cases": report["cases"]})
