"""The sweep: which group passes a plan runs from a given start state.

A gate stage names a chunk grouping, not work: every op is linear, so a
group whose members are all zero comes out exactly as it went in, and the
store already keeps every all-zero chunk as one shared blob. The plan
therefore carries a **support set** — the chunk ids that may hold a
non-zero amplitude — and only groups that meet it are streamed:

* it starts from the store (:func:`live_chunks`): ``{0}`` for |0...0>,
  whatever a checkpoint or a sparse initial state left interned otherwise;
* a group disjoint from it is dropped and stays interned — nothing ever
  rewrites it;
* a group that meets it runs, and afterwards all its members are live;
* a permutation stage relabels it (``new[d]`` live iff ``old[perm[d]]``).

A running group's members outside the set just before its pass are its
**zero members**: they still hold the interned zero blob, so the store
fills their slots with zeros instead of decoding (:func:`predict_sweep`
names them; only live members reach the codec on load).

The rule is conservative (a live chunk may still hold only zeros) and
decided before execution, never from the data a pass produced: Belady
eviction, plan-coldest spilling, the codec lane's prefetch, the audit and
the progress total all need the whole schedule up front.

:func:`predict_sweep` is the only place that list is produced, and
:func:`predict_pass_schedule` is its passes. The scheduler iterates them,
:class:`~repro.memory.hierarchy.AccessSchedule` is built from them, and
the audit's predictions, the progress total and the per-run plan report
are read off them.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Set, Tuple

from ..compile import CompiledGateStage
from ..memory.layout import ChunkLayout
from .stages import GateStage, PermutationStage

__all__ = ["live_chunks", "predict_pass_schedule", "predict_sweep"]

#: ``("pass", stage, group, members)`` or ``("barrier", stage, -1, ())``
Pass = Tuple[str, int, int, Tuple[int, ...]]


def live_chunks(store) -> Set[int]:
    """The store's support set: every chunk that is not the interned zero
    blob. Ask before the first pass — ``store()`` never interns, so a chunk
    a pass wrote reads as live whatever it holds."""
    return {chunk for chunk in range(store.layout.num_chunks)
            if not store.is_zero_chunk(chunk)}


def predict_pass_schedule(
    stages: Sequence[Any],
    layout: ChunkLayout,
    support: Optional[Iterable[int]] = None,
) -> List[Pass]:
    """The exact group-pass sequence a run of ``stages`` executes.

    Per gate stage, the layout's chunk groups in boustrophedon order
    (every second gate stage sweeps backwards — permutations don't
    consume a sweep), minus the groups that cannot hold a non-zero
    amplitude.
    ``support`` is the start state's support set (see :func:`live_chunks`);
    ``None`` means any chunk may be non-zero, i.e. the full sweep. Returns
    a flat list of

    * ``("pass", stage_index, group_id, members)`` — one group pass, and
    * ``("barrier", stage_index, -1, ())`` — one permutation stage.

    Group ids are the placement's enumeration indices whether or not
    earlier groups were dropped, so ``(stage, group)`` keys line up with
    the traffic ledger's and the sweep direction sees the ids it always
    did.
    """
    return [p for p, _zero in predict_sweep(stages, layout, support)]


def predict_sweep(
    stages: Sequence[Any],
    layout: ChunkLayout,
    support: Optional[Iterable[int]] = None,
) -> List[Tuple[Pass, Tuple[int, ...]]]:
    """:func:`predict_pass_schedule`'s passes, each with its zero members.

    A pass's zero members are its members outside the support set just
    before it runs, in member order (``()`` for a barrier and under full
    support): the chunks whose load is a fill, not a decode."""
    sweep: List[Tuple[Pass, Tuple[int, ...]]] = []
    live = None if support is None else set(support)
    parity = 0
    for si, stage in enumerate(stages):
        if live is not None and len(live) == layout.num_chunks:
            live = None  # full support: nothing left to drop
        if isinstance(stage, PermutationStage):
            sweep.append((("barrier", si, -1, ()), ()))
            if live is not None:
                live = {dst for dst, src in enumerate(stage.perm)
                        if src in live}
            continue
        if not isinstance(stage, (GateStage, CompiledGateStage)):
            raise TypeError(f"unknown stage type {type(stage).__name__}")
        order = list(enumerate(layout.chunk_groups(stage.group_qubits).groups))
        # Alternate sweep direction per stage: the chunks touched last are
        # touched first next stage, so a bounded cache keeps hitting
        # (boustrophedon order — the locality fix for cyclic sweeps).
        parity ^= 1
        if parity == 0:
            order.reverse()
        for gi, members in order:
            zero: Tuple[int, ...] = ()
            if live is not None:
                if live.isdisjoint(members):
                    continue
                zero = tuple(m for m in members if m not in live)
                live.update(members)  # groups of one stage are disjoint
            sweep.append((("pass", si, gi, members), zero))
    return sweep
