"""Experiment MT1 — memory-audit plane overhead: recorder + ledger, A/B'd.

The audit plane (byte-exact traffic ledger + chunk access recorder) is
meant to be cheap enough to leave on whenever telemetry is on: the ledger
is a couple of dict updates per chunk movement and the recorder one tuple
append per chunk access — the chunks themselves are kilobytes to megabytes,
so the bookkeeping should vanish next to codec and transfer work. The
acceptance bar is < 3% wall-time regression with the full plane on vs the
same telemetry without an access recorder.

Three interleaved arms over the same streamed QFT workload:

* **disabled** — ``NULL_TELEMETRY``: the reference for what turning
  telemetry on costs at all (``enabled_ratio`` = base over disabled);
* **base** — full ``Telemetry`` (ledger included — it is constitutive of
  an enabled telemetry object) but no access recorder attached;
* **audited** — the same plus a live ``ChunkAccessRecorder``, and at the
  end the complete offline analysis a ``repro memtrace`` run would do
  (reuse histogram, hit-rate curve, LRU + Belady replay) — analysis time
  is reported separately, it is not part of the run wall time.

Runs interleave (disabled/base/audited/…) so drift hits every arm equally; the
comparator takes medians. ``overhead_ratio`` is a gated metric only when
the gap between the two medians exceeds the arms' own interquartile range;
otherwise the record carries it under ``extra`` as information (three
repeats once read 0.95x under a 0.05 tolerance: noise, gated). The audited
arm also sanity-checks the plane:
trace length > 0 and codec raw bytes == chunks * passes * chunk bytes.

Emits the canonical ``results/BENCH_MT1.json`` record. ``REPRO_FULL=1``
raises the qubit count.
"""

from __future__ import annotations

import argparse
import time

import pytest

from common import (FULL, emit_result, paired_ratio, print_banner,
                    quartile_range, seconds, tight_config)
from repro.analysis import Table, format_seconds
from repro.analysis.memtrace import analyze_trace
from repro.circuits import get_workload
from repro.core import MemQSim
from repro.memory import ChunkAccessRecorder
from repro.telemetry import NULL_TELEMETRY, Telemetry

N = 16 if FULL else 13
CHUNK = 8 if FULL else 7
WORKLOAD = "qft"
REPEATS = 7
WHATIF_CAPACITY = 4

ARMS = ("disabled", "base", "audited")


def run_once(arm: str, n: int = N) -> dict:
    circ = get_workload(WORKLOAD, n)
    cfg = tight_config(chunk_qubits=CHUNK)
    if arm == "disabled":
        t0 = time.perf_counter()
        res = MemQSim(cfg, telemetry=NULL_TELEMETRY).run(circ)
        return {"arm": arm, "wall_seconds": time.perf_counter() - t0,
                "norm": float(res.norm())}
    tel = Telemetry()
    if arm == "audited":
        tel.access = ChunkAccessRecorder()
    t0 = time.perf_counter()
    res = MemQSim(cfg, telemetry=tel).run(circ)
    out = {
        "arm": arm,
        "wall_seconds": time.perf_counter() - t0,
        "norm": float(res.norm()),
        "ledger_bytes": tel.traffic.total_bytes(),
    }
    if arm == "audited":
        trace = tel.access.trace()
        assert trace, "audited arm must record a non-empty trace"
        t1 = time.perf_counter()
        rep = analyze_trace(trace, capacity=WHATIF_CAPACITY)
        out["analysis_seconds"] = time.perf_counter() - t1
        out["accesses"] = rep.accesses
        out["lru_misses"] = rep.lru_misses
        out["belady_misses"] = rep.belady_misses
        assert rep.belady_misses <= rep.lru_misses
    return out


def generate_report(n: int = N, repeats: int = REPEATS) -> dict:
    runs = {arm: [] for arm in ARMS}
    for _ in range(repeats):  # interleaved so drift hits every arm equally
        for arm in ARMS:
            runs[arm].append(run_once(arm, n))
    med = {arm: sorted(r["wall_seconds"] for r in runs[arm])[repeats // 2]
           for arm in ARMS}
    last = runs["audited"][-1]
    iqr = {arm: quartile_range([r["wall_seconds"] for r in runs[arm]])
           for arm in ARMS}
    return {
        "experiment": "MT1 memory-audit plane overhead",
        "workload": WORKLOAD,
        "num_qubits": n,
        "chunk_qubits": CHUNK,
        "repeats": repeats,
        "runs": runs,
        "medians": med,
        "iqr": iqr,
        # whether the A/B says anything: the gap against the arms' spread
        "resolved": abs(med["audited"] - med["base"])
        > max(iqr["audited"], iqr["base"]),
        # the acceptance ratio: recorder on vs same telemetry, recorder off
        "overhead_ratio": (med["audited"] / med["base"] if med["base"]
                           else float("inf")),
        # what telemetry (tracer + metrics + ledger) costs at all
        "enabled_ratio": (med["base"] / med["disabled"] if med["disabled"]
                          else float("inf")),
        # the same, pair by pair (see paired_ratio)
        "paired_enabled": paired_ratio(*(
            [r["wall_seconds"] for r in runs[arm]]
            for arm in ("base", "disabled"))),
        "accesses": last["accesses"],
        "lru_misses": last["lru_misses"],
        "belady_misses": last["belady_misses"],
        "analysis_seconds": last["analysis_seconds"],
    }


def render_table(report: dict) -> Table:
    t = Table(
        ["arm", "median wall", "iqr", "runs", "accesses", "analysis"],
        title=(f"MT1: audit plane overhead, {report['workload']} "
               f"n={report['num_qubits']} chunk={report['chunk_qubits']}"),
    )
    for arm in ARMS:
        rs = report["runs"][arm]
        t.add(arm, format_seconds(report["medians"][arm]),
              format_seconds(report["iqr"][arm]),
              " ".join(format_seconds(r["wall_seconds"]) for r in rs),
              str(report["accesses"]) if arm == "audited" else "-",
              format_seconds(report["analysis_seconds"])
              if arm == "audited" else "-")
    return t


# -- pytest-benchmark targets ---------------------------------------------------

@pytest.mark.parametrize("arm", list(ARMS))
def test_audit_plane_wall_clock(benchmark, arm):
    res = benchmark.pedantic(run_once, args=(arm, 11),
                             rounds=1, iterations=1)
    assert res["norm"] == pytest.approx(1.0, abs=1e-3)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", "--qubits", type=int, default=N)
    ap.add_argument("--repeats", type=int, default=REPEATS)
    args = ap.parse_args()

    print_banner(__doc__.splitlines()[0])
    report = generate_report(args.qubits, args.repeats)
    print(render_table(report).render())
    print(f"\naudit-plane overhead vs base telemetry: "
          f"{(report['overhead_ratio'] - 1) * 100:+.2f}%  (acceptance: < 3%; "
          + ("gated" if report["resolved"] else
             "inside the arms' interquartile range: informational") + ")")
    med, iqr = report["medians"], report["iqr"]
    print(f"enabled (base) over disabled: {report['enabled_ratio']:.3f}x "
          f"(IQR {iqr['base'] / med['base'] * 100:.1f}% / "
          f"{iqr['disabled'] / med['disabled'] * 100:.1f}% of the medians); "
          f"paired median {report['paired_enabled']['median']:.3f}x, IQR "
          f"{report['paired_enabled']['q1']:.3f}-"
          f"{report['paired_enabled']['q3']:.3f}")
    print(f"what-if at C={WHATIF_CAPACITY}: LRU {report['lru_misses']} "
          f"misses, Belady {report['belady_misses']} (lower bound)")
    metrics = {
        "wall_seconds_disabled": seconds(
            *(r["wall_seconds"] for r in report["runs"]["disabled"])),
        "wall_seconds_base": seconds(
            *(r["wall_seconds"] for r in report["runs"]["base"])),
        "wall_seconds_audited": seconds(
            *(r["wall_seconds"] for r in report["runs"]["audited"])),
    }
    if report["resolved"]:
        # the acceptance bar itself: audited/base, 1.0 == free. Gated only
        # when the medians differ by more than the arms' own spread.
        metrics["overhead_ratio"] = {
            "values": [report["overhead_ratio"]],
            "direction": "lower", "tolerance": 0.05}
    emit_result("MT1", title=__doc__.splitlines()[0],
                params={"num_qubits": report["num_qubits"],
                        "chunk_qubits": CHUNK, "workload": WORKLOAD,
                        "repeats": args.repeats,
                        "whatif_capacity": WHATIF_CAPACITY},
                metrics=metrics,
                tables=[render_table(report)],
                extra={"runs": report["runs"], "medians": report["medians"],
                       "iqr": report["iqr"], "resolved": report["resolved"],
                       "overhead_ratio": report["overhead_ratio"],
                       "enabled_ratio": report["enabled_ratio"],
                       "paired_enabled": report["paired_enabled"],
                       "accesses": report["accesses"],
                       "lru_misses": report["lru_misses"],
                       "belady_misses": report["belady_misses"],
                       "analysis_seconds": report["analysis_seconds"]})
