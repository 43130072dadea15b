"""Experiment A6 — ablations of MEMQSim's own design choices.

DESIGN.md calls out optimizations the paper's architecture enables; each
is switchable, so we measure its contribution directly:

* **permutation stages** — executing global X/SWAP as compressed-blob
  relabelings instead of streaming chunk groups;
* **gate fusion** — merging adjacent 1q gates per group pass.
"""

from __future__ import annotations

import pytest

import time

from common import emit_result, print_banner, seconds, tight_config
from repro.analysis import Table, format_seconds
from repro.circuits import Circuit, random_circuit
from repro.core import MemQSim

N = 11


def perm_heavy_circuit(n: int = N) -> Circuit:
    """A circuit rich in global X/SWAP gates (error-correction-style)."""
    c = Circuit(n, name="perm-heavy")
    for q in range(n):
        c.h(q)
    for rep in range(6):
        for q in range(n - 4, n):
            c.x(q)
        c.swap(n - 1, n - 2)
        for q in range(4):
            c.cx(q, q + 1)
    return c


def run(circ, **overrides):
    cfg = tight_config(chunk_qubits=6).with_updates(**overrides)
    return MemQSim(cfg).run(circ)


def permutation_table() -> Table:
    t = Table(["permutation stages", "serial", "group passes", "codec stores"],
              title="A6a: blob-permutation stages on/off (perm-heavy circuit)")
    circ = perm_heavy_circuit()
    for flag in (True, False):
        res = run(circ, enable_permutation_stages=flag)
        t.add("on" if flag else "off",
              format_seconds(res.serial_seconds),
              res.scheduler_stats.group_passes,
              res.store.stats.stores)
    return t


def fusion_table() -> Table:
    t = Table(["fusion", "kernel gates", "serial", "kernel time"],
              title="A6b: 1q gate fusion on/off (random circuit)")
    circ = random_circuit(N, 150, seed=8, two_qubit_prob=0.2)
    for flag in (False, True):
        res = run(circ, fuse_gates=flag)
        t.add("on" if flag else "off",
              res.scheduler_stats.gates_applied,
              format_seconds(res.serial_seconds),
              format_seconds(res.stage_breakdown.get("kernel", 0.0)))
    return t


# -- pytest-benchmark targets ---------------------------------------------------

def test_permutation_stages_save_codec_traffic(benchmark):
    def both():
        circ = perm_heavy_circuit(10)
        on = run(circ, enable_permutation_stages=True)
        off = run(circ, enable_permutation_stages=False)
        return on, off

    on, off = benchmark.pedantic(both, rounds=1, iterations=1)
    assert on.store.stats.stores < off.store.stats.stores
    assert on.scheduler_stats.group_passes < off.scheduler_stats.group_passes


def test_fusion_reduces_kernel_launches(benchmark):
    def both():
        circ = random_circuit(10, 120, seed=8, two_qubit_prob=0.2)
        return run(circ, fuse_gates=True), run(circ, fuse_gates=False)

    fused, plain = benchmark.pedantic(both, rounds=1, iterations=1)
    assert fused.scheduler_stats.gates_applied < plain.scheduler_stats.gates_applied


if __name__ == "__main__":
    print_banner(__doc__.splitlines()[0])
    t0 = time.perf_counter()
    tables = [permutation_table(), fusion_table()]
    wall = time.perf_counter() - t0
    for t in tables:
        print(t.render())
    emit_result("A6", title=__doc__.splitlines()[0],
                params={"num_qubits": N},
                metrics={"wall_seconds": seconds(wall)},
                tables=tables)
