"""Experiment LV1 — live telemetry plane overhead: on vs off, A/B'd.

The live plane (event bus + resource monitor + HTTP exposition) has to be
cheap enough to leave on for real runs. The acceptance bar is < 3% wall-time
regression with the plane fully enabled vs the same telemetry with the
plane off, and *zero* marginal cost when telemetry is disabled entirely
(the group loop talks to ``NULL_OBSERVER``, every other call site is behind
``if tel.enabled:`` — one attribute load and a branch — and each hop is
one timeline row, which only an export reads).

Three interleaved arms over the same QFT workload:

* **disabled** — ``NULL_TELEMETRY``: the CLI default; nothing is recorded.
  The reference point for the zero-overhead-when-off claim;
* **base** — ``Telemetry(bus=False)`` (tracer + metrics + ledger) with the
  live plane off: built without an event bus, no monitor, no server. What
  a ``--trace``/``--metrics`` run paid before the live plane existed;
* **live** — the plane fully on: event bus wired, ``ResourceMonitor``
  sampling at 50 ms, ``TelemetryServer`` on an ephemeral port, and a
  background client polling ``/progress`` + ``/metrics`` every 100 ms the
  way a dashboard would.

Runs interleave (disabled/base/live/…) so drift hits every arm equally; the
comparator takes medians, and the record carries each arm's interquartile
range so a reader can tell a gap from the spread. Two ratios are reported:
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
import urllib.request

import pytest

from common import (FULL, emit_result, paired_ratio, print_banner,
                    quartile_range, seconds, tight_config)
from repro.analysis import Table, format_seconds
from repro.circuits import get_workload
from repro.core import MemQSim
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.live import TelemetryServer

N = 16 if FULL else 13
CHUNK = 8 if FULL else 7
WORKLOAD = "qft"
REPEATS = 7
MONITOR_MS = 50.0
POLL_SECONDS = 0.1

ARMS = ("disabled", "base", "live")


class _DashboardClient:
    """Polls /progress and /metrics like a live dashboard would."""

    def __init__(self, url: str, interval: float = POLL_SECONDS):
        self._url = url
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="lv1-poller")
        self.polls = 0

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            for path in ("/progress", "/metrics"):
                try:
                    with urllib.request.urlopen(self._url + path,
                                                timeout=2) as resp:
                        resp.read()
                    self.polls += 1
                except OSError:
                    pass  # server mid-shutdown; the run is what we time

    def __enter__(self) -> "_DashboardClient":
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
    server = TelemetryServer(tel, port=0).start()
    try:
        with _DashboardClient(server.url):
            t0 = time.perf_counter()
            res = MemQSim(cfg, telemetry=tel).run(circ)
            out["wall_seconds"] = time.perf_counter() - t0
    finally:
        server.stop()
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
    emit_result("LV1", title=__doc__.splitlines()[0],
                params={"num_qubits": report["num_qubits"],
                        "chunk_qubits": CHUNK, "workload": WORKLOAD,
                        "repeats": args.repeats,
                        "monitor_interval_ms": MONITOR_MS},
                metrics={
                    "wall_seconds_disabled": seconds(
                        *(r["wall_seconds"] for r in report["runs"]["disabled"])),
                    "wall_seconds_base": seconds(
                        *(r["wall_seconds"] for r in report["runs"]["base"])),
                    "wall_seconds_live": seconds(
                        *(r["wall_seconds"] for r in report["runs"]["live"])),
                    # the acceptance bar itself: live/base, 1.0 == free.
                    # tolerance 0.05 keeps scheduler jitter from gating a
                    # sub-3%-budget metric too tightly.
                    "overhead_ratio": {
                        "values": [report["overhead_ratio"]],
                        "direction": "lower", "tolerance": 0.05},
                    # telemetry on at all vs off; read it against the
                    # arms' IQRs in ``extra``
                    "enabled_ratio": {
                        "values": [report["enabled_ratio"]],
                        "direction": "lower", "tolerance": 0.10},
                },
                tables=[render_table(report)],
                extra={"runs": report["runs"], "medians": med,
                       "iqr": report["iqr"], "paired": report["paired"]})
