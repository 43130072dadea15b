"""What one prepared kernel launch costs: the model window fusion minimises.

:func:`~repro.compile.passes.fuse_windows` splits a stage's op list into
the contiguous windows whose launches cost the least in total. It prices a
window through a :data:`WindowCost`; a :data:`Pricing` such as
:func:`window_cost` makes one for a stage from two facts the compiler
knows about it — the group buffer's qubits ``m`` (chunk qubits + group
qubits) and its itemsize — and here from a table of constants.

A launch's seconds are ``overhead + per_amp * 2^m``, with one pair of
constants per kernel kind (as :func:`repro.statevector.kernels
.prepare_launch` classifies it), width and itemsize. The pairs are fitted
from the committed record ``results/BENCH_FU2.json``
(``python benchmarks/bench_fusion.py --launches``: one prepared launch per
kind x width 1-5 x m 6-16 x complex64 / complex128, one BLAS thread). They
are constants, not a probe of the running host, on purpose: a plan must be
a pure function of the circuit's shape, the layout and the config, so that
two processes compile one circuit to the same ops (a lossy, fused run's
state digest depends on where the windows fall).

The kind of an op is read from its recipe's shape — names, qubits and
diagonality — never from its values, so a ``cz`` is priced as a diagonal
of random phases although it scales one quarter of the buffer only.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

from .template import GateRecipe, Recipe

__all__ = ["MAX_WINDOW_QUBITS", "LAUNCH_CONSTANTS", "WindowCost", "Pricing",
           "launch_kind", "launch_seconds", "window_cost"]

#: the widest window fusion builds: the widest the record measures
MAX_WINDOW_QUBITS = 5

#: prices one window of contiguous ops: ``(its ops, the width of their
#: qubit union) -> seconds`` (or any other additive unit)
WindowCost = Callable[[Sequence[Recipe], int], float]

#: makes a stage's :data:`WindowCost` from its buffer qubits ``m`` and
#: itemsize; what the compiler takes as ``pricing``
Pricing = Callable[[int, int], WindowCost]

#: ``"kind:width" -> {itemsize: (overhead seconds, seconds per amplitude)}``,
#: fitted by ``benchmarks/bench_fusion.py --launches`` (results/BENCH_FU2.json
#: ``fitted``; a test checks the two agree)
LAUNCH_CONSTANTS: Dict[str, Dict[int, Tuple[float, float]]] = {
    "dense_1q:1": {8: (1.087e-05, 5.438e-09),
                   16: (1.071e-05, 2.438e-09)},
    "diagonal:2": {8: (9.86e-06, 2.253e-09),
                   16: (9.078e-06, 8.925e-10)},
    "diagonal:3": {8: (1.955e-05, 2.723e-09),
                   16: (1.899e-05, 1.58e-09)},
    "diagonal:4": {8: (4.133e-05, 3.442e-09),
                   16: (3.932e-05, 1.819e-09)},
    "diagonal:5": {8: (8.31e-05, 4.416e-09),
                   16: (7.984e-05, 2.294e-09)},
    "diagonal_1q:1": {8: (5.338e-06, 2.087e-09),
                      16: (5.03e-06, 6.509e-10)},
    "generic:2": {8: (6.138e-06, 7.92e-09),
                  16: (6.172e-06, 4.806e-09)},
    "generic:3": {8: (5.677e-06, 8.21e-09),
                  16: (6.118e-06, 5.267e-09)},
    "generic:4": {8: (7.229e-06, 1.009e-08),
                  16: (6.418e-06, 7.075e-09)},
    "generic:5": {8: (7.859e-06, 1.195e-08),
                  16: (7.305e-06, 9.106e-09)},
    "stored_diagonal:1": {8: (4.898e-06, 2.166e-09),
                          16: (4.834e-06, 6.385e-10)},
    "stored_diagonal:2": {8: (9.727e-06, 2.245e-09),
                          16: (9.05e-06, 9.03e-10)},
    "stored_diagonal:3": {8: (2e-05, 2.713e-09),
                          16: (1.9e-05, 1.555e-09)},
    "stored_diagonal:4": {8: (1.884e-06, 3.768e-09),
                          16: (1.139e-06, 2.167e-09)},
    "stored_diagonal:5": {8: (1.765e-06, 3.773e-09),
                          16: (1.127e-06, 2.145e-09)},
    "swap:2": {8: (2.06e-06, 8.047e-10),
               16: (2.528e-06, 9.741e-10)},
    "x:1": {8: (2.016e-06, 1.1e-09),
            16: (2.277e-06, 1.329e-09)},
}


def launch_kind(recipe: Recipe) -> Tuple[str, int]:
    """``(kind, width)`` of the launch ``recipe``'s op will get, from its
    shape: the branch :func:`~repro.statevector.kernels.prepare_launch`
    takes for a gate of that name, qubit count and diagonality."""
    width = len(recipe.qubits)
    if recipe.name == "swap":
        return "swap", width
    if isinstance(recipe, GateRecipe):
        if recipe.source.to_gate().diag is not None:
            return "stored_diagonal", width
        if width == 1:
            if recipe.name == "x":
                return "x", 1
            return ("diagonal_1q" if recipe.diagonal else "dense_1q"), 1
        return ("diagonal" if recipe.diagonal else "generic"), width
    # a fold, merge or window: a stored diagonal or a dense matrix
    if recipe.diagonal:
        return "stored_diagonal", width
    return ("dense_1q" if width == 1 else "generic"), width


def launch_seconds(kind: str, width: int, m: int, itemsize: int) -> float:
    """Predicted seconds of one ``kind`` launch of ``width`` qubits on a
    ``2^m``-amplitude buffer of ``itemsize``-byte amplitudes (8 or 16).

    A single gate wider than the record (never a window) takes the
    widest recorded width's constants, scaled by ``2^extra``."""
    recorded = min(width, MAX_WINDOW_QUBITS)
    overhead, per_amp = LAUNCH_CONSTANTS[f"{kind}:{recorded}"][itemsize]
    return (1 << (width - recorded)) * (overhead + per_amp * (1 << m))


def window_cost(m: int, itemsize: int) -> WindowCost:
    """The pricing of windows on a ``2^m``-amplitude buffer of
    ``itemsize``-byte amplitudes: what the ops a window emits cost — its
    own ops for one op or an all-diagonal run (the pass leaves those as
    they are), else one dense launch over the union."""
    def cost(ops: Sequence[Recipe], width: int) -> float:
        if len(ops) == 1 or all(op.diagonal for op in ops):
            return sum(launch_seconds(*launch_kind(op), m, itemsize)
                       for op in ops)
        return launch_seconds("dense_1q" if width == 1 else "generic",
                              width, m, itemsize)
    return cost
