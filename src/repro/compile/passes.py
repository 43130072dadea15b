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
3. :func:`fuse_windows` — contiguous ops whose union of qubits stays within
   ``max_fuse_qubits`` collapse into one dense k-qubit unitary, executed by
   the generic ``apply_matrix_generic`` kernel path.

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

from typing import Callable, Dict, List, Optional, Sequence, Tuple

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

def fuse_windows(ops: Sequence[Recipe], max_fuse_qubits: int = 3,
                 can_densify: CanDensify = _always,
                 stats: Optional[Dict[str, int]] = None) -> List[Recipe]:
    """Fuse contiguous ops whose qubit union fits in ``max_fuse_qubits``.

    Greedy: extend the current window while the union stays within the cap
    and is densifiable; otherwise flush. Windows of one op — or windows
    that are entirely diagonal (densifying those would trade an ``O(2^k)``
    diagonal for an ``O(4^k)`` matmul) — emit their ops unchanged.
    """
    if max_fuse_qubits < 1:
        raise ValueError("max_fuse_qubits must be >= 1")
    out: List[Recipe] = []
    window: List[Recipe] = []
    union: set = set()

    def flush() -> None:
        nonlocal union
        if not window:
            return
        if len(window) == 1 or all(o.diagonal for o in window):
            out.extend(window)
        else:
            out.append(WindowRecipe.of(window))
            _count(stats, "fused_windows")
        window.clear()
        union = set()

    for op in ops:
        q = set(op.qubits)
        if window and len(union | q) <= max_fuse_qubits \
                and can_densify(tuple(sorted(union | q))):
            window.append(op)
            union |= q
            continue
        flush()
        if len(q) <= max_fuse_qubits and can_densify(tuple(sorted(q))):
            window.append(op)
            union = set(q)
        else:
            out.append(op)
    flush()
    return out
