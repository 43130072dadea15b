"""Experiment SV1 — serve daemon: job latency, plan-cache warmup, tenancy.

The service plane has to earn its keep: a daemon that holds one shared
``DeviceArena``, one codec lane pool and a compiled-plan cache should
make *repeat* submissions cheaper than cold ones, and should overlap two
tenants' host-side work instead of serializing it. Three questions, one
record:

* **cold vs warm plan cache** — submit the same circuit to a fresh
  daemon, then again: the second submission reuses the compiled plan
  (``serve.plan_cache.hit``), so its submit→done latency drops by the
  lowering cost. The acceptance bar is ``warm_speedup > 1``.
* **throughput, one vs two tenants** — the same batch of jobs pushed
  through one tenant queue vs split across two; the round-robin arbiter
  plus double-buffer-sized leases admit two concurrent runs. Host-side
  work is GIL-bound, so the two arms should land in the same ballpark —
  the win multi-tenancy buys is fairness and overlap, not raw rate —
  and the record keeps both so a regression in either shows up.
* **p50 latency under load** — the median submit→done latency of a
  saturated batch, per tenancy arm.

All arms run the daemon in-process (``ServeManager``, no HTTP): what's
being measured is admission, arbitration and plan reuse, not socket
overhead. Timestamps come from the jobs' own ledger
(``submitted_at``/``finished_at``), so poll granularity never pollutes
the numbers.

Emits the canonical ``results/BENCH_SV1.json`` record. ``REPRO_FULL=1``
raises the qubit count.
"""

from __future__ import annotations

import argparse
import time

import pytest

from common import FULL, emit_result, print_banner, seconds
from repro.analysis import Table, format_seconds
from repro.core import MemQSimConfig
from repro.device import DeviceSpec
from repro.serve import ServeManager
from repro.telemetry import Telemetry

N = 12 if FULL else 10
CHUNK = 6 if FULL else 5
ARENA_AMPS = 1 << (CHUNK + 6)  # tiny shared arena: forces real streaming
WORKLOAD = "qft"
REPEATS = 3
WARM_JOBS = 3   # warm-latency samples per repeat
BATCH = 6       # jobs per throughput batch


def base_config(n: int = N) -> MemQSimConfig:
    """The daemon's base config: small arena, fusion on.

    Fusion makes lowering do real work, which is exactly what the plan
    cache amortizes — the cold arm pays it once, the warm arm never.
    """
    return MemQSimConfig(
        device=DeviceSpec(memory_bytes=ARENA_AMPS * 16),
        chunk_qubits=CHUNK,
        fuse_gates=True,
    )


def _wait_all(mgr: ServeManager, jobs, timeout: float = 300.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(j.finished for j in jobs):
            bad = [j for j in jobs if j.state != "done"]
            assert not bad, [(j.id, j.state, j.error) for j in bad]
            return
        time.sleep(0.005)
    raise TimeoutError(f"jobs not done: {[(j.id, j.state) for j in jobs]}")


def _latency(job) -> float:
    return job.finished_at - job.submitted_at


def measure_plan_cache(n: int = N) -> dict:
    """One fresh daemon: first submission compiles, the rest reuse."""
    mgr = ServeManager(base_config(n), Telemetry())
    try:
        cold = mgr.submit({"workload": WORKLOAD, "qubits": n})
        _wait_all(mgr, [cold])
        warm = []
        for _ in range(WARM_JOBS):
            job = mgr.submit({"workload": WORKLOAD, "qubits": n})
            _wait_all(mgr, [job])
            warm.append(_latency(job))
        stats = mgr.plan_cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == WARM_JOBS, stats
        return {"cold": _latency(cold), "warm": sorted(warm)[len(warm) // 2],
                "warm_all": warm}
    finally:
        mgr.shutdown()


def measure_throughput(tenants: int, n: int = N, batch: int = BATCH) -> dict:
    """A saturated batch through ``tenants`` queues on a warmed daemon."""
    mgr = ServeManager(base_config(n), Telemetry(), max_jobs=2)
    try:
        _wait_all(mgr, [mgr.submit({"workload": WORKLOAD, "qubits": n})])
        jobs = [mgr.submit({"workload": WORKLOAD, "qubits": n,
                            "tenant": f"t{i % tenants}"})
                for i in range(batch)]
        _wait_all(mgr, jobs)
        t0 = min(j.submitted_at for j in jobs)
        t1 = max(j.finished_at for j in jobs)
        lats = sorted(_latency(j) for j in jobs)
        return {"tenants": tenants, "batch": batch,
                "wall_seconds": t1 - t0,
                "throughput_jobs_per_s": batch / (t1 - t0),
                "p50_latency_seconds": lats[len(lats) // 2]}
    finally:
        mgr.shutdown()


def generate_report(n: int = N, repeats: int = REPEATS) -> dict:
    cache_runs = [measure_plan_cache(n) for _ in range(repeats)]
    one = [measure_throughput(1, n) for _ in range(repeats)]
    two = [measure_throughput(2, n) for _ in range(repeats)]
    med = lambda vals: sorted(vals)[len(vals) // 2]  # noqa: E731
    cold_med = med([r["cold"] for r in cache_runs])
    warm_med = med([r["warm"] for r in cache_runs])
    return {
        "experiment": "SV1 serve daemon throughput and latency",
        "workload": WORKLOAD,
        "num_qubits": n,
        "chunk_qubits": CHUNK,
        "arena_amplitudes": ARENA_AMPS,
        "repeats": repeats,
        "cache_runs": cache_runs,
        "cold_median": cold_med,
        "warm_median": warm_med,
        "warm_speedup": cold_med / warm_med if warm_med else float("inf"),
        "one_tenant": one,
        "two_tenants": two,
        "throughput_one": med([r["throughput_jobs_per_s"] for r in one]),
        "throughput_two": med([r["throughput_jobs_per_s"] for r in two]),
        "p50_one": med([r["p50_latency_seconds"] for r in one]),
        "p50_two": med([r["p50_latency_seconds"] for r in two]),
    }


def render_table(report: dict) -> Table:
    t = Table(
        ["arm", "median latency", "throughput", "notes"],
        title=(f"SV1: serve daemon, {report['workload']} "
               f"n={report['num_qubits']} chunk={report['chunk_qubits']} "
               f"arena=2^{report['arena_amplitudes'].bit_length() - 1} amps"),
    )
    t.add("cold (plan compiled)", format_seconds(report["cold_median"]),
          "-", "fresh daemon, first submission")
    t.add("warm (plan cached)", format_seconds(report["warm_median"]), "-",
          f"speedup x{report['warm_speedup']:.2f}")
    t.add("1 tenant", format_seconds(report["p50_one"]),
          f"{report['throughput_one']:.2f} jobs/s",
          f"batch of {BATCH}, FIFO")
    t.add("2 tenants", format_seconds(report["p50_two"]),
          f"{report['throughput_two']:.2f} jobs/s",
          f"batch of {BATCH}, round-robin")
    return t


# -- pytest-benchmark targets ---------------------------------------------------

def test_serve_warm_submission(benchmark):
    """Submit→done latency of a warm (plan-cached) job."""
    mgr = ServeManager(base_config(9), Telemetry())
    try:
        _wait_all(mgr, [mgr.submit({"workload": WORKLOAD, "qubits": 9})])
        # pedantic calls one_job `rounds` times, but once under
        # --benchmark-disable: count what ran
        calls = []

        def one_job():
            job = mgr.submit({"workload": WORKLOAD, "qubits": 9})
            _wait_all(mgr, [job])
            calls.append(job)
            return job

        job = benchmark.pedantic(one_job, rounds=3, iterations=1)
        assert job.state == "done"
        assert mgr.plan_cache.stats()["hits"] == len(calls) >= 1
    finally:
        mgr.shutdown()


@pytest.mark.parametrize("tenants", [1, 2])
def test_serve_batch_throughput(benchmark, tenants):
    res = benchmark.pedantic(measure_throughput, args=(tenants, 9, 4),
                             rounds=1, iterations=1)
    assert res["throughput_jobs_per_s"] > 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", "--qubits", type=int, default=N)
    ap.add_argument("--repeats", type=int, default=REPEATS)
    args = ap.parse_args()

    print_banner(__doc__.splitlines()[0])
    report = generate_report(args.qubits, args.repeats)
    print(render_table(report).render())
    print(f"\nwarm plan cache vs cold: x{report['warm_speedup']:.2f} "
          f"(acceptance: > 1)")
    emit_result("SV1", title=__doc__.splitlines()[0],
                params={"num_qubits": report["num_qubits"],
                        "chunk_qubits": CHUNK, "workload": WORKLOAD,
                        "arena_amplitudes": ARENA_AMPS,
                        "repeats": args.repeats, "batch": BATCH,
                        "warm_jobs": WARM_JOBS},
                metrics={
                    "latency_cold": seconds(
                        *(r["cold"] for r in report["cache_runs"])),
                    "latency_warm": seconds(
                        *(r["warm"] for r in report["cache_runs"])),
                    # the acceptance ratio: cold/warm, > 1 == cache pays
                    "warm_speedup": {
                        "values": [report["warm_speedup"]],
                        "direction": "higher"},
                    "throughput_one_tenant": {
                        "values": [r["throughput_jobs_per_s"]
                                   for r in report["one_tenant"]],
                        "unit": "jobs/s", "direction": "higher"},
                    "throughput_two_tenants": {
                        "values": [r["throughput_jobs_per_s"]
                                   for r in report["two_tenants"]],
                        "unit": "jobs/s", "direction": "higher"},
                    "p50_latency_one_tenant": seconds(
                        *(r["p50_latency_seconds"]
                          for r in report["one_tenant"])),
                    "p50_latency_two_tenants": seconds(
                        *(r["p50_latency_seconds"]
                          for r in report["two_tenants"])),
                },
                tables=[render_table(report)],
                extra={"cache_runs": report["cache_runs"],
                       "one_tenant": report["one_tenant"],
                       "two_tenants": report["two_tenants"]})
