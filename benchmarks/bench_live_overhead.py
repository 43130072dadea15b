"""Experiment LV1 — live telemetry plane overhead: on vs off, A/B'd.

The live plane (event bus + resource monitor + the reads a watcher makes)
has to be cheap enough to leave on for real runs. The acceptance bar is < 3% wall-time
regression with the plane fully enabled vs the same telemetry with the
plane off, and *zero* marginal cost when telemetry is disabled entirely
(the group loop talks to ``NULL_OBSERVER``, every other call site is behind
``if tel.enabled:`` — one attribute load and a branch — and each hop is
one timeline row, which only an export reads).

Three interleaved arms over the same QFT workload:

* **disabled** — ``NULL_TELEMETRY``: the CLI default; nothing is recorded.
  The reference point for the zero-overhead-when-off claim;
* **base** — ``Telemetry(bus=False)`` (tracer + metrics + ledger) with the
  live plane off: built without an event bus, no monitor, no poller. What
  a ``--trace``/``--metrics`` run paid before the live plane existed;
* **live** — the plane fully on: event bus wired, ``ResourceMonitor``
  sampling at 50 ms, and an in-process poller thread that every 100 ms
  renders ``render_prometheus(tel)`` and takes ``tel.progress.snapshot()``
  — the work the serve daemon's ``/metrics`` and ``/jobs/{id}`` do per
  request, without the socket.

Runs interleave (disabled/base/live/…) so drift hits every arm equally; the
report takes medians, and the record carries each arm's interquartile
range so a reader can tell a gap from the spread. The run is sized so the
poller reads it several times while it is in flight (qft(19) at chunk 7
spans ~7 poll periods on a 2-vCPU x86_64 host): a run that ends before
the first read would price only the bus and the monitor, and the live
arm counts the reads that landed inside the run. Two ratios are reported:
live over base (the live plane's own cost) and base over disabled (what
turning telemetry on costs at all), each next to the arms' IQRs. The live arm also asserts the plan-aware progress
tracker lands on *exactly* 1.0 and records the bounded bus's published /
dropped counts.

Emits the canonical ``results/BENCH_LV1.json`` record. ``REPRO_FULL=1``
raises the qubit count.
"""

from __future__ import annotations

import argparse
import threading
import time

import pytest

from common import (FULL, emit_result, paired_ratio, print_banner,
                    quartile_range, seconds, tight_config)
from repro.analysis import Table, format_seconds
from repro.circuits import get_workload
from repro.core import MemQSim
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.live import render_prometheus

N = 21 if FULL else 19
CHUNK = 8 if FULL else 7
WORKLOAD = "qft"
REPEATS = 7
MONITOR_MS = 50.0
POLL_SECONDS = 0.1

ARMS = ("disabled", "base", "live")


class _Poller:
    """Reads the run's telemetry the way the daemon serves a watched job:
    the Prometheus text of ``/metrics`` and the progress of
    ``/jobs/{id}``. ``read_at`` holds when each read finished."""

    def __init__(self, tel: Telemetry):
        self._tel = tel
        self.read_at = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="lv1-poller")

    def _loop(self) -> None:
        while not self._stop.wait(POLL_SECONDS):
            render_prometheus(self._tel)
            progress = self._tel.progress  # None until the plan exists
            if progress is not None:
                progress.snapshot()
            self.read_at.append(time.perf_counter())

    def __enter__(self) -> "_Poller":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def run_once(arm: str, n: int = N) -> dict:
    circ = get_workload(WORKLOAD, n)
    cfg = tight_config(chunk_qubits=CHUNK,
                       monitor_interval_ms=MONITOR_MS if arm == "live"
                       else 0.0)
    out = {"arm": arm}
    if arm == "disabled":
        t0 = time.perf_counter()
        res = MemQSim(cfg, telemetry=NULL_TELEMETRY).run(circ)
        out["wall_seconds"] = time.perf_counter() - t0
        out["norm"] = float(res.norm())
        return out

    if arm == "base":
        tel = Telemetry(bus=False)  # tracer + metrics only: the pre-live cost
        t0 = time.perf_counter()
        res = MemQSim(cfg, telemetry=tel).run(circ)
        out["wall_seconds"] = time.perf_counter() - t0
        out["norm"] = float(res.norm())
        return out

    tel = Telemetry()
    with _Poller(tel) as poller:
        t0 = time.perf_counter()
        res = MemQSim(cfg, telemetry=tel).run(circ)
        t1 = time.perf_counter()
    out["wall_seconds"] = t1 - t0
    out["reads_in_flight"] = sum(t0 < t <= t1 for t in poller.read_at)
    out["norm"] = float(res.norm())
    out["final_fraction"] = tel.progress.fraction
    out["events_published"] = tel.bus.published
    out["events_dropped"] = tel.bus.dropped
    assert tel.progress.fraction == 1.0, (
        f"progress must finish at exactly 1.0, got {tel.progress.fraction!r}")
    return out


def generate_report(n: int = N, repeats: int = REPEATS) -> dict:
    runs = {arm: [] for arm in ARMS}
    for _ in range(repeats):  # interleaved so drift hits every arm equally
        for arm in ARMS:
            runs[arm].append(run_once(arm, n))
    med = {arm: sorted(r["wall_seconds"] for r in runs[arm])[repeats // 2]
           for arm in ARMS}
    last_live = runs["live"][-1]
    return {
        "experiment": "LV1 live telemetry overhead",
        "workload": WORKLOAD,
        "num_qubits": n,
        "chunk_qubits": CHUNK,
        "repeats": repeats,
        "runs": runs,
        "medians": med,
        "iqr": {arm: quartile_range([r["wall_seconds"] for r in runs[arm]])
                for arm in ARMS},
        # the acceptance ratio: live plane on vs same telemetry, plane off
        "overhead_ratio": (med["live"] / med["base"] if med["base"]
                           else float("inf")),
        # what telemetry costs at all: tracer + metrics + ledger vs off
        "enabled_ratio": (med["base"] / med["disabled"] if med["disabled"]
                          else float("inf")),
        # the same two ratios taken pair by pair (see paired_ratio)
        "paired": {
            "live_over_base": paired_ratio(*(
                [r["wall_seconds"] for r in runs[arm]]
                for arm in ("live", "base"))),
            "base_over_disabled": paired_ratio(*(
                [r["wall_seconds"] for r in runs[arm]]
                for arm in ("base", "disabled"))),
        },
        "events_published": last_live["events_published"],
        "events_dropped": last_live["events_dropped"],
        "reads_in_flight": [r["reads_in_flight"] for r in runs["live"]],
    }


def render_table(report: dict) -> Table:
    t = Table(
        ["arm", "median wall", "iqr", "runs", "events", "dropped"],
        title=(f"LV1: live plane overhead, {report['workload']} "
               f"n={report['num_qubits']} chunk={report['chunk_qubits']}"),
    )
    for arm in ARMS:
        rs = report["runs"][arm]
        t.add(arm, format_seconds(report["medians"][arm]),
              format_seconds(report["iqr"][arm]),
              " ".join(format_seconds(r["wall_seconds"]) for r in rs),
              str(report["events_published"]) if arm == "live" else "-",
              str(report["events_dropped"]) if arm == "live" else "-")
    return t


# -- pytest-benchmark targets ---------------------------------------------------

@pytest.mark.parametrize("arm", list(ARMS))
def test_live_plane_wall_clock(benchmark, arm):
    res = benchmark.pedantic(run_once, args=(arm,), rounds=1, iterations=1)
    assert res["norm"] == pytest.approx(1.0, abs=1e-3)
    if arm == "live":  # the watcher's reads are part of what is priced
        assert res["reads_in_flight"] >= 3, res


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", "--qubits", type=int, default=N)
    ap.add_argument("--repeats", type=int, default=REPEATS)
    args = ap.parse_args()

    print_banner(__doc__.splitlines()[0])
    report = generate_report(args.qubits, args.repeats)
    print(render_table(report).render())
    med, iqr = report["medians"], report["iqr"]

    def spread(arm):
        return f"IQR {iqr[arm] / med[arm] * 100:.1f}% of median"

    print(f"\nlive-plane overhead vs base telemetry: "
          f"{(report['overhead_ratio'] - 1) * 100:+.2f}%  (acceptance: < 3%; "
          f"live {spread('live')}, base {spread('base')})")
    print(f"enabled (base) over disabled: {report['enabled_ratio']:.3f}x "
          f"(base {spread('base')}, disabled {spread('disabled')})")
    for name, r in report["paired"].items():
        print(f"paired {name}: median {r['median']:.3f}x, "
              f"IQR {r['q1']:.3f}-{r['q3']:.3f}")
    print(f"poller reads inside each live run: {report['reads_in_flight']}")
    emit_result("LV1", title=__doc__.splitlines()[0],
                params={"num_qubits": report["num_qubits"],
                        "chunk_qubits": CHUNK, "workload": WORKLOAD,
                        "repeats": args.repeats,
                        "monitor_interval_ms": MONITOR_MS,
                        "poll_seconds": POLL_SECONDS},
                metrics={
                    "wall_seconds_disabled": seconds(
                        *(r["wall_seconds"] for r in report["runs"]["disabled"])),
                    "wall_seconds_base": seconds(
                        *(r["wall_seconds"] for r in report["runs"]["base"])),
                    "wall_seconds_live": seconds(
                        *(r["wall_seconds"] for r in report["runs"]["live"])),
                    # the acceptance bar itself: live/base, 1.0 == free
                    "overhead_ratio": {
                        "values": [report["overhead_ratio"]],
                        "direction": "lower"},
                    # telemetry on at all vs off; read it against the
                    # arms' IQRs in ``extra``
                    "enabled_ratio": {
                        "values": [report["enabled_ratio"]],
                        "direction": "lower"},
                },
                tables=[render_table(report)],
                extra={"runs": report["runs"], "medians": med,
                       "iqr": report["iqr"], "paired": report["paired"],
                       "reads_in_flight": report["reads_in_flight"]})
