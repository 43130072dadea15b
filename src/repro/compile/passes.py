"""Lowering passes: 1q folding, diagonal-run merging, window fusion.

Each pass maps a list of ops to a shorter list of ops with the identical
product unitary (up to floating-point reassociation), trading Python-level
kernel dispatch for a handful of tiny matmuls at compile time. The passes
only *decide*: they read names, qubits and diagonality, and what they take
and return are :class:`~repro.compile.template.Recipe` nodes, which do the
arithmetic when they are bound to a circuit's parameter values:

1. :func:`fold_1q_runs` — consecutive single-qubit gates on the same qubit
   (no intervening gate touching it) become one 2x2 matmul; an all-diagonal
   run stays a stored diagonal, so restrictable global-qubit phases keep
   their compact form.
2. :func:`merge_diagonal_runs` — consecutive diagonal ops merge into one
   stored diagonal over the union of their qubits (diagonals commute, and
   a stored diagonal costs ``O(2^k)`` not ``O(4^k)``); capped at
   ``max_diag_qubits`` so register-wide oracles don't blow up.
3. :func:`fuse_windows` — the op list is split into the contiguous windows
   whose launches a cost model (:mod:`repro.compile.cost`) prices lowest;
   a window of several ops, at most 5 qubits wide, becomes one dense k-qubit
   unitary, executed by the generic kernel path.

Safety for the chunked pipeline: a ``can_densify(qubits)`` predicate guards
every transformation that turns a diagonal into a dense matrix or grows a
dense op's qubit set. The scheduler's per-group machinery can only execute
dense ops whose global qubits are *in the stage's group*; diagonals on
out-of-group global qubits must stay diagonal so the per-chunk restriction
(:func:`repro.pipeline.scheduler.restrict_diagonal`) still applies. Passes
never reorder non-commuting gates: 1q folding only moves gates across
disjoint-qubit ops, diagonal merging only merges (mutually commuting)
diagonals, window fusion preserves contiguity.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cost import MAX_WINDOW_QUBITS, WindowCost
from .template import FoldRecipe, MergeRecipe, Recipe, WindowRecipe

__all__ = ["fold_1q_runs", "merge_diagonal_runs", "fuse_windows"]

#: qubit-set predicate: True when a dense op over these qubits is executable
CanDensify = Callable[[Tuple[int, ...]], bool]


def _always(_qubits: Tuple[int, ...]) -> bool:
    return True


def _count(stats: Optional[Dict[str, int]], key: str) -> None:
    if stats is not None:
        stats[key] = stats.get(key, 0) + 1


# ---------------------------------------------------------------------------
# Pass 1: single-qubit run folding
# ---------------------------------------------------------------------------

def fold_1q_runs(ops: Sequence[Recipe], can_densify: CanDensify = _always,
                 stats: Optional[Dict[str, int]] = None) -> List[Recipe]:
    """Fold per-qubit runs of 1q ops into one 2x2 matmul (or 2-entry diag).

    A run ends when any other gate touches the qubit; emitting a pending
    run after later disjoint-qubit gates is safe because gates on disjoint
    qubits commute. Dense folding is gated by ``can_densify`` — a run that
    is entirely diagonal folds to a stored diagonal instead, which is
    always safe (it stays restrictable per chunk group).
    """
    out: List[Recipe] = []
    pending: Dict[int, List[Recipe]] = {}

    def flush(q: int) -> None:
        run = pending.pop(q, None)
        if not run:
            return
        if len(run) == 1:
            out.append(run[0])
        elif all(o.diagonal for o in run) or can_densify((q,)):
            out.append(FoldRecipe.of(q, run))
            _count(stats, "fused_1q")
        else:
            out.extend(run)

    for op in ops:
        if op.num_qubits == 1:
            pending.setdefault(op.qubits[0], []).append(op)
        else:
            for q in op.qubits:
                flush(q)
            out.append(op)
    for q in sorted(pending):
        flush(q)
    return out


# ---------------------------------------------------------------------------
# Pass 2: diagonal-run merging
# ---------------------------------------------------------------------------

def merge_diagonal_runs(ops: Sequence[Recipe], max_diag_qubits: int = 8,
                        stats: Optional[Dict[str, int]] = None) -> List[Recipe]:
    """Merge consecutive diagonal ops into one stored diagonal.

    Diagonals all commute, so any contiguous run collapses to a single
    stored diagonal over the (sorted) union of their qubits. The union is
    capped at ``max_diag_qubits`` to bound the ``2^k`` vector; a single op
    wider than the cap passes through unchanged.
    """
    out: List[Recipe] = []
    run: List[Recipe] = []
    union: set = set()

    def flush() -> None:
        nonlocal union
        if len(run) == 1:
            out.append(run[0])
        elif run:
            out.append(MergeRecipe.of(run))
            _count(stats, "merged_diagonals")
        run.clear()
        union = set()

    for op in ops:
        if not op.diagonal or len(op.qubits) > max_diag_qubits:
            flush()
            out.append(op)
            continue
        if run and len(union | set(op.qubits)) > max_diag_qubits:
            flush()
        run.append(op)
        union |= set(op.qubits)
    flush()
    return out


# ---------------------------------------------------------------------------
# Pass 3: contiguous window fusion
# ---------------------------------------------------------------------------

def fuse_windows(ops: Sequence[Recipe], cost: WindowCost,
                 can_densify: CanDensify = _always,
                 stats: Optional[Dict[str, int]] = None) -> List[Recipe]:
    """Split ``ops`` into the contiguous windows ``cost`` prices lowest.

    A shortest path over the cut points: ``best[i]`` is the cheapest split
    of ``ops[i:]``, and a window ``ops[i:j]`` is a candidate when it is
    one op, or its qubit union is at most :data:`~repro.compile.cost
    .MAX_WINDOW_QUBITS` wide and densifiable. Among splits of equal cost
    the one whose first window is longest wins, so the result is a pure
    function of the ops and the prices. A window of one op, or one that is
    entirely diagonal (densifying it would trade an ``O(2^k)`` diagonal for
    an ``O(4^k)`` matmul), emits its ops unchanged; any other becomes one
    dense unitary over its union. ``stats["widest_window"]`` is the
    widest of those.
    """
    n = len(ops)
    best = [0.0] * (n + 1)
    cut = [n] * (n + 1)
    for i in range(n - 1, -1, -1):
        union: set = set()
        best[i] = math.inf
        for j in range(i, n):
            union |= set(ops[j].qubits)
            if j > i and (len(union) > MAX_WINDOW_QUBITS
                          or not can_densify(tuple(sorted(union)))):
                break  # every longer window is wider still
            total = cost(ops[i:j + 1], len(union)) + best[j + 1]
            if total <= best[i]:
                best[i], cut[i] = total, j + 1
    out: List[Recipe] = []
    i = 0
    while i < n:
        window = ops[i:cut[i]]
        if len(window) == 1 or all(o.diagonal for o in window):
            out.extend(window)
        else:
            fused = WindowRecipe.of(window)
            out.append(fused)
            _count(stats, "fused_windows")
            if stats is not None:
                stats["widest_window"] = max(stats.get("widest_window", 0),
                                             fused.num_qubits)
        i = cut[i]
    return out
