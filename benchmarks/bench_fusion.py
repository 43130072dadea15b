"""Experiments FU1 / FU2 — gate fusion: what fusing saves per run, and what a launch costs.

FU1 (``python bench_fusion.py``) times whole runs, fused against unfused.
FU2 (``python bench_fusion.py --launches``) times one prepared kernel
launch per kind x width 1-5 x buffer qubits m 6-16 x complex64 / complex128
and fits the constants of the launch-cost model fusion minimises
(``repro.compile.cost``); see the FU2 section below.

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

Emits the canonical ``results/BENCH_FU1.json`` record (window widths as
the launch-cost model picks them). ``REPRO_FULL=1
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
import json
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

from common import (FULL, bench_telemetry, circuit_of, emit_result,
                    print_banner, quartile_range, seconds, tight_config)
from repro.analysis import Table, format_seconds
from repro.circuits import qft
from repro.circuits.gates import make_diagonal_gate, make_gate
from repro.core import MemQSim
from repro.device.timeline import Stage
from repro.statevector.kernels import prepare_launch

#: interleaved repeats per arm — what the committed record was made with
REPEATS = 9
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


def _config(family: str, chunk_qubits: int, fuse_gates):
    codec, _arms = FAMILIES[family]
    return tight_config(chunk_qubits=chunk_qubits, fuse_gates=fuse_gates,
                        **codec)


def run_once(family: str, n: int, chunk_qubits: int, arm: str):
    circ = circuit_of(family, n)
    cfg = _config(family, chunk_qubits, FAMILIES[family][1][arm])
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
        "widest_window": cr.widest_window,
        "predicted_kernel_s": cr.predicted_kernel_seconds,
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


def measure_case(family: str, n: int, chunk_qubits: int) -> dict:
    arms = list(FAMILIES[family][1])
    runs = {arm: [] for arm in arms}
    last = {}
    for _ in range(REPEATS):  # interleaved so drift hits both arms equally
        for arm in arms:
            row, last[arm] = run_once(family, n, chunk_qubits, arm)
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


def generate_report() -> dict:
    return {
        "experiment": "FU1 gate fusion",
        "cases": [measure_case(family, n, c) for family, n, c in CASES],
    }


def render_table(report: dict) -> Table:
    t = Table(
        ["circuit (codec)", "n / group", "arm", "ops out", "widest",
         "launches", "kernel median", "kernel iqr", "wall median",
         "wall iqr"],
        title="FU1: gate fusion, windows priced by the launch-cost model",
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
                str(first["widest_window"]),
                str(first["kernel_launches"]),
                format_seconds(s["kernel_s"]["median"]),
                format_seconds(s["kernel_s"]["iqr"]),
                format_seconds(s["wall_seconds"]["median"]),
                format_seconds(s["wall_seconds"]["iqr"]),
            )
    return t


# -- FU2: what one prepared launch costs -----------------------------------------

#: the (kind, width) cells FU2 times: every branch of ``prepare_launch``
LAUNCH_CELLS = ([("dense_1q", 1), ("diagonal_1q", 1), ("x", 1), ("swap", 2)]
                + [("diagonal", k) for k in range(2, 6)]
                + [("stored_diagonal", k) for k in range(1, 6)]
                + [("generic", k) for k in range(2, 6)])
#: buffer qubits m: chunk qubits + group qubits of a stage's group buffer
LAUNCH_M = tuple(range(6, 17))
LAUNCH_DTYPES = {8: np.complex64, 16: np.complex128}
#: interleaved samples per cell, and roughly how long one sample runs
LAUNCH_REPEATS = 9
SAMPLE_SECONDS = 0.004
#: the cells FU2 times once more under two BLAS threads
WIDE_CELLS = [("generic", 4), ("generic", 5)]


def _random_unitary(k, rng):
    z = rng.standard_normal((1 << k,) * 2) + 1j * rng.standard_normal((1 << k,) * 2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _launch_gate(kind, qubits, rng):
    """A gate ``prepare_launch`` classifies as ``kind``; diagonals carry
    random phases (no unit entry for the kernel to skip)."""
    k = len(qubits)
    phases = np.exp(1j * rng.uniform(0.1, 6.0, 1 << k))
    if kind == "diagonal_1q":
        return make_gate("rz", qubits, (0.7,))
    if kind in ("x", "swap"):
        return make_gate(kind, qubits)
    if kind == "diagonal":
        return make_gate("unitary", qubits, matrix=np.diag(phases))
    if kind == "stored_diagonal":
        return make_diagonal_gate(qubits, phases)
    return make_gate("unitary", qubits, matrix=_random_unitary(k, rng))


def _placements(m, k):
    """Where a window's qubits sit in the buffer: at the bottom (chunk
    bits), spread across it, at the top (group bits)."""
    spread = tuple(sorted({int(round(x)) for x in np.linspace(0, m - 1, k)}))
    return [tuple(range(k)), spread, tuple(range(m - k, m))]


def time_launches(cells=LAUNCH_CELLS, ms=LAUNCH_M, repeats=LAUNCH_REPEATS):
    """One row per (itemsize, m, kind, width): the median and quartile
    range of one launch's seconds, each sample the mean over the three
    placements. The cells at one (itemsize, m) are interleaved, their
    order rotated every repeat, so drift hits all widths alike."""
    rng = np.random.default_rng(0)
    rows = []
    for itemsize, dtype in LAUNCH_DTYPES.items():
        for m in ms:
            timed = []
            for kind, k in cells:
                launches = [prepare_launch(_launch_gate(kind, qs, rng), m)
                            for qs in _placements(m, k)]
                buf = (rng.standard_normal(1 << m)
                       + 1j * rng.standard_normal(1 << m)).astype(dtype)
                buf /= np.linalg.norm(buf)
                for launch in launches:  # warm: first-call set-up
                    launch(buf)
                t0 = time.perf_counter()
                for launch in launches:
                    launch(buf)
                once = (time.perf_counter() - t0) / len(launches)
                calls = max(1, int(SAMPLE_SECONDS / max(once, 1e-7)
                                   / len(launches)))
                timed.append((kind, k, launches, buf, calls, []))
            for r in range(repeats):
                shift = r % len(timed)
                for kind, k, launches, buf, calls, samples in \
                        timed[shift:] + timed[:shift]:
                    t0 = time.perf_counter()
                    for _ in range(calls):
                        for launch in launches:
                            launch(buf)
                    samples.append((time.perf_counter() - t0)
                                   / (calls * len(launches)))
            for kind, k, _launches, _buf, _calls, samples in timed:
                rows.append({"kind": kind, "width": k, "m": m,
                             "itemsize": itemsize,
                             "median_s": statistics.median(samples),
                             "iqr_s": quartile_range(samples),
                             "samples": samples})
    return rows


def fit_launch_constants(rows):
    """Per (kind, width, itemsize), the ``(overhead, per_amp)`` whose
    ``overhead + per_amp * 2^m`` is closest to the medians in relative
    error (weighted least squares over m), rounded to 4 digits: the
    constants ``repro.compile.cost.LAUNCH_CONSTANTS`` holds."""
    cells = {}
    for row in rows:
        key = (f"{row['kind']}:{row['width']}", row["itemsize"])
        cells.setdefault(key, []).append((row["m"], row["median_s"]))
    fitted = {}
    for (cell, itemsize), points in sorted(cells.items()):
        m = np.array([p[0] for p in points], dtype=float)
        t = np.array([p[1] for p in points])
        design = np.stack([np.ones_like(m), 2.0 ** m], axis=1) / t[:, None]
        (overhead, per_amp), *_ = np.linalg.lstsq(design, np.ones_like(t),
                                                  rcond=None)
        fitted.setdefault(cell, {})[itemsize] = [
            float(f"{max(overhead, 0.0):.4g}"), float(f"{per_amp:.4g}")]
    return fitted


def _wide_rows_at_two_threads():
    """:data:`WIDE_CELLS` timed in a child whose OpenBLAS has two threads
    (the thread count is fixed when numpy loads)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               MKL_NUM_THREADS="2")
    out = subprocess.run([sys.executable, os.path.abspath(__file__),
                          "--wide-rows"], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def launch_report():
    rows = time_launches()
    return {"experiment": "FU2 launch costs", "rows": rows,
            "fitted": fit_launch_constants(rows),
            "two_blas_threads": _wide_rows_at_two_threads()}


def render_launch_table(report) -> Table:
    widths = [f"{kind}:{k}" for kind, k in LAUNCH_CELLS]
    t = Table(["itemsize", "m"] + widths,
              title="FU2: one prepared launch, median microseconds")
    cell = {(r["itemsize"], r["m"], f"{r['kind']}:{r['width']}"):
            r["median_s"] for r in report["rows"]}
    for itemsize in LAUNCH_DTYPES:
        for m in LAUNCH_M:
            t.add(str(itemsize), str(m),
                  *(f"{cell[itemsize, m, w] * 1e6:.1f}" for w in widths))
    return t


def emit_launch_record(report):
    table = render_launch_table(report)
    print(table.render())
    two = {(r["itemsize"], r["m"], r["kind"], r["width"]): r["median_s"]
           for r in report["two_blas_threads"]}
    for (itemsize, m, kind, k), t2 in sorted(two.items()):
        one = next(r["median_s"] for r in report["rows"]
                   if (r["itemsize"], r["m"], r["kind"], r["width"])
                   == (itemsize, m, kind, k))
        print(f"two BLAS threads, {kind}:{k} itemsize {itemsize} m {m}: "
              f"{t2 / one:.2f}x one thread")
    emit_result("FU2", title="FU2 — one prepared kernel launch per kind, "
                "width, buffer qubits and itemsize",
                params={"cells": [list(c) for c in LAUNCH_CELLS],
                        "m": list(LAUNCH_M),
                        "itemsizes": list(LAUNCH_DTYPES),
                        "repeats": LAUNCH_REPEATS,
                        "sample_seconds": SAMPLE_SECONDS,
                        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
                tables=[table],
                extra={key: report[key] for key in
                       ("rows", "fitted", "two_blas_threads")})


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
    ap.add_argument("--launches", action="store_true",
                    help="record FU2 (launch costs and the fitted model) "
                         "instead of FU1")
    ap.add_argument("--wide-rows", action="store_true",
                    help=argparse.SUPPRESS)  # FU2's two-thread child
    args = ap.parse_args()
    if args.wide_rows:
        print(json.dumps(time_launches(WIDE_CELLS)))
        raise SystemExit(0)
    print_banner(__doc__.splitlines()[0])
    if args.launches:
        emit_launch_record(launch_report())
        raise SystemExit(0)
    report = generate_report()
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
                        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
                metrics=metrics, tables=[table],
                extra={"cases": report["cases"]})
