"""Experiment PR1 — adaptive precision: c64 vs c128 on a streamed workload.

The tentpole claim behind ``precision="c64"``: MEMQSim's economics are
bytes-not-FLOPs, so halving the amplitude itemsize must halve the traffic
on every tier edge end to end — and, because the codec and transfer hops
dominate, cut wall time too. This bench runs the same streamed circuit at
both precisions and gates on

* end-to-end bytes ratio (all tier edges) <= 0.55, from one
  ``Telemetry()`` run per precision, and
* wall-time ratio < 1.0 (c64 must actually be faster, not just smaller):
  the median of c64 / c128 over interleaved pairs of runs with telemetry
  off (``common.paired_ratio``), reported with its quartiles,

and records the measured fidelity of the c64 run against the dense c128
oracle.

Codec choice: the zlib codec is *byte*-bound only where it deflates (a
``raw`` frame is a copy, the same cost at either precision), so the
workload is one whose zlib writes are deflate frames: a VQE ansatz on 14
of 17 qubits whose local qubits 9-11 stay |0>, so every chunk is 1/8
nonzero. The bench asserts that at least 80 % of each precision's
compressions are ``deflate`` frames (``codec.lossless_frame.*``). The
szlike quantizer is *element*-bound (same plane count at either
precision), so its c64 wall ratio hovers near 1.0 — its traffic still
halves, which the CI precision smoke asserts separately.
"""

from __future__ import annotations

import time

import pytest

from common import (emit_result, metric, paired_ratio, print_banner,
                    quartile_range, seconds)
from repro.analysis import Table, format_bytes, format_seconds
from repro.circuits import vqe_ansatz
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec
from repro.telemetry import Telemetry

N = 17
CHUNK = 12
DEVICE_MB = 1.0
#: the qubits the ansatz acts on below ``CHUNK`` (local); every qubit from
#: ``CHUNK`` up (global) is acted on too, so every chunk is live
ACTIVE_LOCAL = 9
WORKLOAD = f"vqe on local qubits 0-{ACTIVE_LOCAL - 1} and every global"
REPEATS = 15
#: the pytest targets run below N but must keep at least a few chunks of CHUNK
TEST_N = CHUNK + 2

#: the adoption gates: c64 is worth choosing when both hold
BYTES_RATIO_GATE = 0.55
WALL_RATIO_GATE = 1.0
#: the workload's premise: zlib deflates (not copies) what it writes
DEFLATE_SHARE_FLOOR = 0.8


def circuit(n: int = N):
    """The VQE ansatz on the local qubits below ``ACTIVE_LOCAL`` and every
    global one; local qubits ``ACTIVE_LOCAL``..``CHUNK - 1`` stay |0>."""
    active = list(range(ACTIVE_LOCAL)) + list(range(CHUNK, n))
    base = vqe_ansatz(len(active), layers=3, seed=7)
    return base.remapped(dict(enumerate(active)), num_qubits=n)


def _config(precision: str) -> MemQSimConfig:
    return MemQSimConfig(
        chunk_qubits=CHUNK,
        compressor="zlib",
        device=DeviceSpec(memory_bytes=int(DEVICE_MB * (1 << 20))),
        precision=precision,
    )


def run_once(precision: str, n: int = N):
    """One streamed run with telemetry on; returns (bytes moved, arena
    bytes, deflate share of the zlib frames, result)."""
    tel = Telemetry()
    res = MemQSim(_config(precision), telemetry=tel).run(circuit(n))
    totals = tel.traffic.totals()
    moved = sum(v["bytes"] for v in totals.values())
    arena = sum(v["bytes"] for k, v in totals.items()
                if k.startswith("arena."))
    frames = {name.rsplit(".", 1)[-1]: v for name, v
              in tel.metrics.snapshot()["counters"].items()
              if name.startswith("codec.lossless_frame.")}
    deflate = frames.get("deflate", 0) / max(1, sum(frames.values()))
    return moved, arena, deflate, res


def wall_pairs(n: int = N, repeats: int = REPEATS):
    """Interleaved ``(c128, c64)`` wall seconds, telemetry off: drift
    that moves both arms of a pair cancels in its ratio."""
    sims = {prec: MemQSim(_config(prec)) for prec in ("c128", "c64")}
    circ = circuit(n)
    walls = {"c128": [], "c64": []}
    for _ in range(repeats):
        for prec, sim in sims.items():
            t0 = time.perf_counter()
            sim.run(circ)
            walls[prec].append(time.perf_counter() - t0)
    return walls


def generate(n: int = N):
    for prec in ("c128", "c64"):  # warmup: imports, allocator, zlib tables
        MemQSim(_config(prec)).run(circuit(min(n, TEST_N)))
    b128, a128, d128, _ = run_once("c128", n)
    b64, a64, d64, res64 = run_once("c64", n)
    walls = wall_pairs(n)
    paired = paired_ratio(walls["c64"], walls["c128"])
    w128 = sorted(walls["c128"])[len(walls["c128"]) // 2]
    w64 = sorted(walls["c64"])[len(walls["c64"]) // 2]
    bytes_ratio = b64 / b128
    arena_ratio = a64 / a128
    wall_ratio = paired["median"]
    fid = res64.precision_fidelity()

    t = Table(
        ["precision", "end-to-end bytes", "arena bytes", "deflate frames",
         "wall (median)", "wall IQR", "overlap vs c128"],
        title=f"PR1: precision sweep ({WORKLOAD}, n={n}, chunk={CHUNK}, "
              f"zlib, device={DEVICE_MB}MiB, {REPEATS} pairs)",
    )
    t.add("c128", format_bytes(b128), format_bytes(a128), f"{d128:.0%}",
          format_seconds(w128), format_seconds(quartile_range(walls["c128"])),
          "1 (oracle)")
    t.add("c64", format_bytes(b64), format_bytes(a64), f"{d64:.0%}",
          format_seconds(w64), format_seconds(quartile_range(walls["c64"])),
          f"{fid['overlap']:.9f}" if fid["overlap"] is not None
          else f">= {fid['analytic_overlap_bound']:.6f}")
    t.add("c64/c128", f"{bytes_ratio:.3f}", f"{arena_ratio:.3f}", "-",
          f"{wall_ratio:.3f} (paired)",
          f"{paired['q1']:.3f}-{paired['q3']:.3f}", "-")

    metrics = {
        "c64_bytes_ratio": metric([bytes_ratio], unit="ratio"),
        "c64_arena_ratio": metric([arena_ratio], unit="ratio"),
        "c64_wall_ratio": metric(
            [a / b for a, b in zip(walls["c64"], walls["c128"])],
            unit="ratio"),
        "wall_seconds_c128": seconds(*walls["c128"]),
        "wall_seconds_c64": seconds(*walls["c64"]),
        "deflate_share_c128": metric([d128], unit="ratio",
                                     direction="higher"),
        "deflate_share_c64": metric([d64], unit="ratio", direction="higher"),
    }
    premise_ok = min(d128, d64) >= DEFLATE_SHARE_FLOOR
    gates_ok = bytes_ratio <= BYTES_RATIO_GATE and wall_ratio < WALL_RATIO_GATE
    return t, metrics, {
        "bytes_ratio": bytes_ratio,
        "arena_ratio": arena_ratio,
        "wall_ratio": wall_ratio,
        "wall_ratio_paired": paired,
        "deflate_share": {"c128": d128, "c64": d64},
        "overlap": fid["overlap"],
        "premise_ok": premise_ok,
        "gates_ok": gates_ok,
    }


# -- pytest-benchmark targets ---------------------------------------------------


@pytest.mark.parametrize("precision", ["c128", "c64", "mixed"])
def test_streamed_run(benchmark, precision):
    circ = circuit(TEST_N)
    sim = MemQSim(_config(precision))
    res = benchmark.pedantic(sim.run, args=(circ,), rounds=2, iterations=1)
    assert res.norm() == pytest.approx(1.0, abs=1e-3)


def test_c64_halves_traffic(benchmark):
    def run():
        b128, a128, d128, _ = run_once("c128", TEST_N)
        b64, a64, d64, _ = run_once("c64", TEST_N)
        return b64 / b128, a64 / a128, min(d128, d64)

    bytes_ratio, arena_ratio, deflate = benchmark.pedantic(
        run, rounds=1, iterations=1)
    assert arena_ratio == pytest.approx(0.5, abs=1e-9)
    assert bytes_ratio <= BYTES_RATIO_GATE
    assert deflate >= DEFLATE_SHARE_FLOOR


if __name__ == "__main__":
    print_banner(__doc__.splitlines()[0])
    table, metrics, summary = generate()
    print(table.render())
    emit_result("PR1", title=__doc__.splitlines()[0],
                params={"num_qubits": N, "chunk_qubits": CHUNK,
                        "workload": WORKLOAD, "compressor": "zlib",
                        "device_mb": DEVICE_MB, "repeats": REPEATS},
                metrics=metrics, tables=[table], extra=summary)
    if not summary["premise_ok"]:
        raise SystemExit(
            f"PR1 premise failed: deflate share "
            f"{summary['deflate_share']} (>= {DEFLATE_SHARE_FLOOR})")
    if not summary["gates_ok"]:
        raise SystemExit(
            f"PR1 gates failed: bytes_ratio={summary['bytes_ratio']:.3f} "
            f"(<= {BYTES_RATIO_GATE}), wall_ratio="
            f"{summary['wall_ratio']:.3f} (< {WALL_RATIO_GATE})")
    print(f"PR1 gates: PASS (bytes {summary['bytes_ratio']:.3f} <= "
          f"{BYTES_RATIO_GATE}, wall {summary['wall_ratio']:.3f} < "
          f"{WALL_RATIO_GATE})")
