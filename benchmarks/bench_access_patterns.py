"""Experiment A4 — design challenge (3): algorithm behaviour vs access
pattern on the chunked state vector.

"Different quantum algorithms' behaviors affect the access pattern on the
state vector." The planner's stage fingerprint makes that concrete: for
each workload at a fixed layout we report how many stages the circuit
splits into, how many are chunk-local / permutation-only, the group-pass
count (the unit of codec+transfer traffic), and what fraction of gates ride
in local stages. Diagonal-heavy algorithms (QFT, QAOA) stream far less than
entangling-everywhere circuits (supremacy, quantum volume).
"""

from __future__ import annotations

import pytest

import time

from common import emit_result, print_banner, seconds
from repro.analysis import Table
from repro.circuits import WORKLOADS as WORKLOAD_REGISTRY
from repro.circuits import get_workload, qubit_interaction_graph
from repro.core import chunk_loads_from_zero, plan_circuit
from repro.memory import ChunkLayout
from repro.pipeline import describe_plan, plan_stages

N = 12
CHUNK = 6
T_MAX = 2


def fingerprint(workload: str, n: int = N):
    lay = ChunkLayout(n, CHUNK)
    circ = get_workload(workload, n)
    stages = plan_stages(circ, lay, T_MAX)
    return circ, describe_plan(stages, lay)


def generate_table(n: int = N) -> Table:
    t = Table(
        ["workload", "gates", "stages", "local", "perm", "group passes",
         "local-gate %", "coupling edges"],
        title=f"A4: access-pattern fingerprint (n={n}, chunk=2^{CHUNK}, t_max={T_MAX})",
    )
    for w in sorted(WORKLOAD_REGISTRY):
        circ, rep = fingerprint(w, n)
        ig = qubit_interaction_graph(circ)
        local_pct = 100.0 * rep.gates_in_local_stages / max(rep.gates_total, 1)
        t.add(
            w, rep.gates_total, rep.num_stages, rep.num_local_stages,
            rep.num_permutation_stages, rep.group_passes,
            f"{local_pct:.0f}%", ig.number_of_edges(),
        )
    return t


# -- pytest-benchmark targets ---------------------------------------------------

@pytest.mark.parametrize("workload", ["ghz", "qft", "supremacy", "qv"])
def test_planning_speed(benchmark, workload):
    lay = ChunkLayout(N, CHUNK)
    circ = get_workload(workload, N)
    stages = benchmark(plan_stages, circ, lay, T_MAX)
    rep = describe_plan(stages, lay)
    assert rep.gates_total >= len(circ)  # lowering may add swaps


def zero_start_traffic(workload: str, n: int = N):
    """``(chunk loads, group passes per gate)`` of the plan a run from
    |0...0> uses (:func:`~repro.core.plan_circuit`, ``zero_start``)."""
    lay = ChunkLayout(n, CHUNK)
    circ = get_workload(workload, n)
    stages = plan_circuit(circ, lay, T_MAX, zero_start=True).stages
    rep = describe_plan(stages, lay)
    return (chunk_loads_from_zero(stages, lay),
            rep.group_passes / max(rep.gates_total, 1))


def test_access_pattern_ordering(benchmark):
    """QFT (diagonal-heavy) must cost fewer chunk loads than supremacy
    (entangling brickwork) from |0...0>, where every run starts — the
    paper's challenge-3 claim, in what a run pays per chunk (EXPERIMENTS.md
    A4: 84 against 212). Passes per gate are reported beside it; the
    planners no longer order the two by them (0.615 against 0.533)."""

    def run():
        return {w: zero_start_traffic(w) for w in ("qft", "supremacy")}

    traffic = benchmark.pedantic(run, rounds=1, iterations=1)
    for w, (loads, per_gate) in traffic.items():
        benchmark.extra_info[f"{w}_chunk_loads_from_zero"] = loads
        benchmark.extra_info[f"{w}_passes_per_gate"] = per_gate
        print(f"{w}: {loads} chunk loads from |0...0>, "
              f"{per_gate:.3f} group passes per gate")
    assert traffic["qft"][0] < traffic["supremacy"][0]


if __name__ == "__main__":
    print_banner(__doc__.splitlines()[0])
    t0 = time.perf_counter()
    table = generate_table()
    wall = time.perf_counter() - t0
    print(table.render())
    print("fewer group passes per gate = friendlier access pattern for the")
    print("compressed chunk store (diagonals & permutations are free-ish).")
    emit_result("A4", title=__doc__.splitlines()[0],
                params={"num_qubits": N, "chunk_qubits": CHUNK,
                        "max_group": T_MAX},
                metrics={"wall_seconds": seconds(wall)},
                tables=[table])
