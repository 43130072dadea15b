"""Experiment PR1 — adaptive precision: c64 vs c128 on a streamed workload.

The tentpole claim behind ``precision="c64"``: MEMQSim's economics are
bytes-not-FLOPs, so halving the amplitude itemsize must halve the traffic
on every tier edge end to end — and, because the codec and transfer hops
dominate, cut wall time too. This bench runs the same streamed VQE ansatz
at both precisions and gates on

* end-to-end bytes ratio (all tier edges) <= 0.55, and
* wall-time ratio < 1.0 (c64 must actually be faster, not just smaller),

and records the measured fidelity of the c64 run against the dense c128
oracle.

Codec choice: the zlib codec is *byte*-bound, so halving the itemsize
halves its time and the wall gate is meaningful. The szlike quantizer is
*element*-bound (same plane count at either precision), so its c64 wall
ratio hovers near 1.0 — its traffic still halves, which the CI precision
smoke asserts separately.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from common import emit_result, metric, print_banner, seconds
from repro.analysis import Table, format_bytes, format_seconds
from repro.circuits import get_workload
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec
from repro.telemetry import Telemetry

N = 15
CHUNK = 12
DEVICE_MB = 1.0
WORKLOAD = "vqe"
REPEATS = 3
#: the pytest targets run below N but must keep at least a few chunks of CHUNK
TEST_N = CHUNK + 2

#: the adoption gates: c64 is worth choosing when both hold
BYTES_RATIO_GATE = 0.55
WALL_RATIO_GATE = 1.0


def _config(precision: str) -> MemQSimConfig:
    return MemQSimConfig(
        chunk_qubits=CHUNK,
        compressor="zlib",
        device=DeviceSpec(memory_bytes=int(DEVICE_MB * (1 << 20))),
        precision=precision,
    )


def run_once(precision: str, n: int = N):
    """One streamed run; returns (bytes moved, arena bytes, wall, result)."""
    circ = get_workload(WORKLOAD, n)
    tel = Telemetry()
    t0 = time.perf_counter()
    res = MemQSim(_config(precision), telemetry=tel).run(circ)
    wall = time.perf_counter() - t0
    totals = tel.traffic.totals()
    moved = sum(v["bytes"] for v in totals.values())
    arena = sum(v["bytes"] for k, v in totals.items()
                if k.startswith("arena."))
    return moved, arena, wall, res


def generate(n: int = N):
    rows = {}
    walls = {"c128": [], "c64": []}
    for prec in ("c128", "c64"):  # warmup: imports, allocator, zlib tables
        run_once(prec, min(n, 12))
    for _ in range(REPEATS):
        for prec in ("c128", "c64"):
            moved, arena, wall, res = run_once(prec, n)
            rows[prec] = (moved, arena, res)
            walls[prec].append(wall)
    b128, a128, res128 = rows["c128"]
    b64, a64, res64 = rows["c64"]
    w128 = float(np.median(walls["c128"]))
    w64 = float(np.median(walls["c64"]))
    bytes_ratio = b64 / b128
    arena_ratio = a64 / a128
    wall_ratio = w64 / w128
    fid = res64.precision_fidelity()

    t = Table(
        ["precision", "end-to-end bytes", "arena bytes", "wall (median)",
         "overlap vs c128"],
        title=f"PR1: precision sweep ({WORKLOAD}, n={n}, chunk={CHUNK}, "
              f"zlib, device={DEVICE_MB}MiB)",
    )
    t.add("c128", format_bytes(b128), format_bytes(a128),
          format_seconds(w128), "1 (oracle)")
    t.add("c64", format_bytes(b64), format_bytes(a64), format_seconds(w64),
          f"{fid['overlap']:.9f}" if fid["overlap"] is not None
          else f">= {fid['analytic_overlap_bound']:.6f}")
    t.add("c64/c128", f"{bytes_ratio:.3f}", f"{arena_ratio:.3f}",
          f"{wall_ratio:.3f}", "-")

    metrics = {
        "c64_bytes_ratio": metric([bytes_ratio], unit="ratio"),
        "c64_arena_ratio": metric([arena_ratio], unit="ratio"),
        "c64_wall_ratio": metric([wall_ratio], unit="ratio"),
        "wall_seconds_c128": seconds(*walls["c128"]),
        "wall_seconds_c64": seconds(*walls["c64"]),
    }
    gates_ok = bytes_ratio <= BYTES_RATIO_GATE and wall_ratio < WALL_RATIO_GATE
    return t, metrics, {
        "bytes_ratio": bytes_ratio,
        "arena_ratio": arena_ratio,
        "wall_ratio": wall_ratio,
        "overlap": fid["overlap"],
        "gates_ok": gates_ok,
    }


# -- pytest-benchmark targets ---------------------------------------------------


@pytest.mark.parametrize("precision", ["c128", "c64", "mixed"])
def test_streamed_run(benchmark, precision):
    circ = get_workload(WORKLOAD, TEST_N)
    sim = MemQSim(_config(precision))
    res = benchmark.pedantic(sim.run, args=(circ,), rounds=2, iterations=1)
    assert res.norm() == pytest.approx(1.0, abs=1e-3)


def test_c64_halves_traffic(benchmark):
    def run():
        b128, a128, _, _ = run_once("c128", TEST_N)
        b64, a64, _, _ = run_once("c64", TEST_N)
        return b64 / b128, a64 / a128

    bytes_ratio, arena_ratio = benchmark.pedantic(run, rounds=1, iterations=1)
    assert arena_ratio == pytest.approx(0.5, abs=1e-9)
    assert bytes_ratio <= BYTES_RATIO_GATE


if __name__ == "__main__":
    print_banner(__doc__.splitlines()[0])
    table, metrics, summary = generate()
    print(table.render())
    emit_result("PR1", title=__doc__.splitlines()[0],
                params={"num_qubits": N, "chunk_qubits": CHUNK,
                        "workload": WORKLOAD, "compressor": "zlib",
                        "device_mb": DEVICE_MB, "repeats": REPEATS},
                metrics=metrics, tables=[table], extra=summary)
    if not summary["gates_ok"]:
        raise SystemExit(
            f"PR1 gates failed: bytes_ratio={summary['bytes_ratio']:.3f} "
            f"(<= {BYTES_RATIO_GATE}), wall_ratio="
            f"{summary['wall_ratio']:.3f} (< {WALL_RATIO_GATE})")
    print(f"PR1 gates: PASS (bytes {summary['bytes_ratio']:.3f} <= "
          f"{BYTES_RATIO_GATE}, wall {summary['wall_ratio']:.3f} < "
          f"{WALL_RATIO_GATE})")
