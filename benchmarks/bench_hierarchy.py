"""Experiment MH1 — plan-driven Belady eviction vs LRU on a streamed run.

Because the compiled plan fixes the chunk access schedule before the run
starts, the live cache can evict the chunk whose next use is farthest in
the future — Belady's MIN, normally an offline fantasy. This experiment
runs the same streamed VQE workload under LRU and under plan-driven
Belady and checks two things:

* **exactness** — the live Belady cache takes *exactly* the number of
  read misses the offline replay (``repro memtrace``) computes as the
  clairvoyant bound from the recorded trace. Not approximately: the
  eviction decisions are driven by the same schedule the replay sees, so
  any drift is a bug in the cursor resync logic.
* **benefit** — Belady takes fewer misses than LRU at the same capacity;
  the gated metric is the relative miss reduction.

Runs use ``workers=1``; a codec pool would change nothing here — the
cache takes the same hits and misses for every worker count. Miss counts
are fully deterministic (plan-driven schedule, seeded workload), so one
run per arm suffices; wall time is reported but not the point.

Emits the canonical ``results/BENCH_MH1.json`` record. ``REPRO_FULL=1``
raises the qubit count.
"""

from __future__ import annotations

import argparse
import time

import pytest

from common import FULL, emit_result, print_banner, seconds
from repro.analysis import Table, format_seconds
from repro.analysis.memtrace import belady_misses, simulate_cache
from repro.circuits import vqe_ansatz
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec
from repro.memory import ChunkAccessRecorder
from repro.telemetry import Telemetry

N = 13 if FULL else 11
LAYERS = 2
CHUNK = 4
CAPACITY = 32
#: device small enough to force streaming (many stages, many passes) —
#: with a roomy device the whole run is one pass and every policy ties.
DEVICE_MB = 0.002

ARMS = ("lru", "belady")


def run_once(arm: str, n: int = N, capacity: int = CAPACITY) -> dict:
    circ = vqe_ansatz(n, layers=LAYERS)
    tel = Telemetry()
    rec = ChunkAccessRecorder()
    tel.access = rec
    cfg = MemQSimConfig(
        chunk_qubits=CHUNK, compressor="zlib",
        cache_chunks=capacity, cache_policy=arm,
        device=DeviceSpec(memory_bytes=int(DEVICE_MB * (1 << 20))),
    )
    t0 = time.perf_counter()
    res = MemQSim(cfg, telemetry=tel).run(circ)
    wall = time.perf_counter() - t0
    # Snapshot the counters before norm(): computing the norm streams
    # every chunk back through the cache, which is off-schedule traffic.
    stats = res.store.cache_stats
    misses, hits = stats.misses, stats.hits
    return {
        "arm": arm,
        "wall_seconds": wall,
        "misses": misses,
        "hits": hits,
        "norm": float(res.norm()),
        "trace": rec.trace(),
    }


def generate_report(n: int = N, capacity: int = CAPACITY) -> dict:
    runs = {arm: run_once(arm, n, capacity) for arm in ARMS}
    # The access trace is a property of the plan, not the policy: both
    # arms must have seen the identical schedule.
    trace = runs["belady"]["trace"]
    assert trace == runs["lru"]["trace"], \
        "cache policy must not perturb the access schedule"
    bound = belady_misses(trace, capacity)
    lru_replay = simulate_cache(trace, capacity, "lru")[1]
    live = {arm: runs[arm]["misses"] for arm in ARMS}
    # The headline exactness contract: live Belady == offline bound.
    assert live["belady"] == bound, \
        f"live belady took {live['belady']} misses, bound is {bound}"
    assert live["lru"] == lru_replay, \
        f"live lru took {live['lru']} misses, replay says {lru_replay}"
    reduction = ((live["lru"] - live["belady"]) / live["lru"]
                 if live["lru"] else 0.0)
    return {
        "experiment": "MH1 plan-driven Belady eviction vs LRU",
        "workload": "vqe", "num_qubits": n, "layers": LAYERS,
        "chunk_qubits": CHUNK, "capacity": capacity,
        "device_mb": DEVICE_MB,
        "accesses": len(trace),
        "runs": {arm: {k: v for k, v in r.items() if k != "trace"}
                 for arm, r in runs.items()},
        "live_misses": live,
        "belady_bound": bound,
        "miss_reduction": reduction,
    }


def render_table(report: dict) -> Table:
    t = Table(
        ["policy", "live misses", "replay bound", "hits", "wall"],
        title=(f"MH1: eviction policy at C={report['capacity']}, "
               f"{report['workload']} n={report['num_qubits']} "
               f"chunk={report['chunk_qubits']} "
               f"({report['accesses']} accesses)"),
    )
    for arm in ARMS:
        r = report["runs"][arm]
        t.add(arm, str(r["misses"]),
              str(report["belady_bound"]) if arm == "belady" else "-",
              str(r["hits"]), format_seconds(r["wall_seconds"]))
    return t


# -- pytest-benchmark targets ---------------------------------------------------

@pytest.mark.parametrize("arm", list(ARMS))
def test_hierarchy_wall_clock(benchmark, arm):
    res = benchmark.pedantic(run_once, args=(arm, 9, 8),
                             rounds=1, iterations=1)
    assert res["norm"] == pytest.approx(1.0, abs=1e-3)


def test_belady_live_equals_bound_small():
    rep = generate_report(n=9, capacity=8)  # asserts exactness internally
    assert rep["live_misses"]["belady"] <= rep["live_misses"]["lru"]


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", "--qubits", type=int, default=N)
    ap.add_argument("--capacity", type=int, default=CAPACITY)
    args = ap.parse_args()

    print_banner(__doc__.splitlines()[0])
    report = generate_report(args.qubits, args.capacity)
    print(render_table(report).render())
    print(f"\nlive belady == offline bound: "
          f"{report['live_misses']['belady']} == {report['belady_bound']}")
    print(f"miss reduction vs LRU at C={report['capacity']}: "
          f"{report['miss_reduction'] * 100:.1f}%")
    emit_result("MH1", title=__doc__.splitlines()[0],
                params={"num_qubits": report["num_qubits"],
                        "layers": LAYERS, "chunk_qubits": CHUNK,
                        "workload": report["workload"],
                        "capacity": report["capacity"],
                        "device_mb": DEVICE_MB},
                metrics={
                    "wall_seconds_lru": seconds(
                        report["runs"]["lru"]["wall_seconds"]),
                    "wall_seconds_belady": seconds(
                        report["runs"]["belady"]["wall_seconds"]),
                    # deterministic counters — tight tolerances are safe
                    "lru_misses": {
                        "values": [report["live_misses"]["lru"]],
                        "direction": "lower", "tolerance": 0.01},
                    "belady_misses": {
                        "values": [report["live_misses"]["belady"]],
                        "direction": "lower", "tolerance": 0.01},
                    # the headline: how much the plan buys over recency
                    "miss_reduction": {
                        "values": [report["miss_reduction"]],
                        "direction": "higher", "tolerance": 0.02},
                },
                tables=[render_table(report)],
                extra={"runs": report["runs"],
                       "live_misses": report["live_misses"],
                       "belady_bound": report["belady_bound"],
                       "accesses": report["accesses"]})
