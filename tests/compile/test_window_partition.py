"""The window pass takes the cheapest contiguous split, and only that.

* On random op lists of up to 10 ops, the cost of what
  :func:`~repro.compile.passes.fuse_windows` returns equals the minimum,
  found by brute force, over every split into contiguous windows that the
  rules allow (one op, or a union of at most 5 densifiable qubits), under
  the launch-cost model at random buffer sizes and itemsizes. (That a
  width cap reproduces the old greedy partition is ``test_passes``'s.)
* No fused window is wider than 5 qubits or breaks ``can_densify``.
* Two interpreters, with different hash seeds, compile one circuit to the
  same ops: the plan is a function of the circuit, layout and config.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.circuits.gates import gate_is_diagonal, make_diagonal_gate, make_gate
from repro.compile import MAX_WINDOW_QUBITS, as_ops, window_cost
from repro.compile.passes import fuse_windows
from repro.compile.template import GateRecipe, WindowRecipe

SRC = Path(__file__).resolve().parents[2] / "src"

GATES_1Q = ["h", "x", "rz", "ry", "t"]
GATES_2Q = ["cx", "cz", "swap", "rzz", "cp"]


def random_ops(rng, n_ops, n_qubits):
    """``n_ops`` leaf recipes of random 1-, 2- and 3-qubit gates, wide
    stored diagonals among them."""
    ops = []
    for _ in range(n_ops):
        kind = rng.integers(0, 10)
        if kind < 4:
            name = GATES_1Q[rng.integers(len(GATES_1Q))]
            q = (int(rng.integers(n_qubits)),)
            params = (0.3,) if name in ("rz", "ry") else ()
            gate = make_gate(name, q, params)
        elif kind < 8:
            name = GATES_2Q[rng.integers(len(GATES_2Q))]
            q = tuple(int(x) for x in rng.choice(n_qubits, 2, replace=False))
            params = (0.4,) if name in ("rzz", "cp") else ()
            gate = make_gate(name, q, params)
        elif kind < 9:
            q = tuple(int(x) for x in rng.choice(n_qubits, 3, replace=False))
            gate = make_gate("ccx", q)
        else:
            k = int(rng.integers(1, min(5, n_qubits + 1)))
            q = tuple(int(x) for x in rng.choice(n_qubits, k, replace=False))
            gate = make_diagonal_gate(q, np.exp(1j * rng.uniform(0, 6, 1 << k)))
        (op,) = as_ops([gate])
        ops.append(GateRecipe(op, -1, gate_is_diagonal(gate)))
    return ops


def allowed(window, can_densify):
    union = sorted({q for op in window for q in op.qubits})
    return len(window) == 1 or (len(union) <= MAX_WINDOW_QUBITS
                                and can_densify(tuple(union)))


def brute_force(ops, cost, can_densify):
    """The cheapest cost over every split of ``ops`` into allowed windows."""
    best = np.inf
    for cuts in itertools.product((False, True), repeat=len(ops) - 1):
        windows, start = [], 0
        for i, cut in enumerate(cuts, 1):
            if cut:
                windows.append(ops[start:i])
                start = i
        windows.append(ops[start:])
        if all(allowed(w, can_densify) for w in windows):
            best = min(best, sum(
                cost(w, len({q for op in w for q in op.qubits}))
                for w in windows))
    return best


def cost_of(recipes, cost):
    """What a returned op list costs under the model: each op is priced as
    a window of one (a fused window as its one launch, an untouched op as
    itself, so an all-diagonal run as the sum of its ops)."""
    return sum(cost((r,), r.num_qubits) for r in recipes)


@pytest.mark.parametrize("seed", range(60))
def test_the_pass_finds_the_cheapest_split(seed):
    rng = np.random.default_rng(seed)
    n_qubits = int(rng.integers(3, 8))
    ops = random_ops(rng, int(rng.integers(1, 11)), n_qubits)
    blocked = int(rng.integers(n_qubits + 1))  # n_qubits: none blocked

    def can_densify(qs):
        return blocked not in qs

    for _ in range(2):
        cost = window_cost(int(rng.integers(6, 17)),
                           int(rng.choice([8, 16])))
        out = fuse_windows(ops, cost, can_densify)
        assert cost_of(out, cost) == pytest.approx(
            brute_force(ops, cost, can_densify), rel=1e-12)
        for r in out:
            if isinstance(r, WindowRecipe):
                assert r.num_qubits <= MAX_WINDOW_QUBITS
                assert can_densify(r.qubits)
        # the ops come back whole and in order
        assert [leaf for r in out for leaf in getattr(r, "parts", (r,))] \
            == ops


COMPILE_ONCE = """
import hashlib, sys
import numpy as np
from repro.circuits import vqe_ansatz
from repro.compile import compile_stages
from repro.memory import ChunkLayout
from repro.pipeline import plan_stages
circuit = vqe_ansatz(12, layers=3, params=np.linspace(0.1, 6.0, 72))
layout = ChunkLayout(12, 7)
plan = compile_stages(plan_stages(circuit, layout, 3), layout,
                      fusion=True, itemsize=8)
digest = hashlib.sha256()
for stage in plan.stages:
    for op in getattr(stage, "ops", ()):
        gate = op.to_gate()
        body = gate.diag if gate.diag is not None else gate.matrix
        digest.update(repr((op.name, op.qubits)).encode() + body.tobytes())
print(plan.report.ops_out, digest.hexdigest())
"""


def test_two_processes_compile_the_same_ops():
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        outs.append(subprocess.run(
            [sys.executable, "-c", COMPILE_ONCE], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout.split())
    assert outs[0] == outs[1]
    assert int(outs[0][0]) > 0
