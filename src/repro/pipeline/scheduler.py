"""The online stage: stream chunk groups through the codec/transfer/kernel
pipeline (paper Fig. 1 steps (1)-(6)).

For every :class:`GateStage` the scheduler iterates the stage's group
passes in the run's pass schedule (:mod:`repro.pipeline.sweep`): the
layout's chunk groups minus those that cannot hold a non-zero amplitude,
which stay the interned zero blob they are. Each group pass performs, with
each phase *measured*, once, by the layer that runs it (the store its
codec calls, the executor its copies and kernels) and recorded on the
run's timeline:

1. DECOMPRESS — load the group's chunks from the compressed store into a
   staging buffer (one slot per chunk);
2. H2D — upload the group buffer to the device arena;
3. KERNEL — apply the stage's gates, with global qubits remapped to their
   virtual in-buffer positions and diagonals restricted per group (a
   :class:`StageProgram` lowers each op once per fixed-bit pattern, not
   once per group);
4. D2H — download the updated amplitudes;
5. COMPRESS — recompress each chunk back into the store.

Every group takes that one path through the one device executor.
:class:`PermutationStage`s relabel compressed blobs directly.

This is the only group loop, and it runs serially. Real concurrency lives
*behind* the store: with a codec lane attached
(:meth:`CompressedChunkStore.attach_lane`) — the paper's step (5), idle
cores doing the codec work — the per-pass ``will_need`` hint starts the
next pass's decompress jobs before this pass's kernel runs and ``store``
returns once its compress job is submitted. The loop, its order and every
cache / tier decision it drives are the same for any worker count; what
the lane hides shows up in the run's measured ``online_seconds``.

Whoever watches a run — spans, the progress tracker, the event bus, the
resource monitor — hangs off one :class:`~repro.telemetry.PassObserver`;
the loop makes two calls on it per group pass and none per chunk. Which
stage a row is of is the timeline's ``stage_index``, which the loop sets
where a pass or a permutation barrier starts and where a stage ends; the
traffic ledger reads it off the rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.gates import Gate, gate_is_diagonal, make_diagonal_gate
from ..compile import CompiledGateStage, GateOp, compile_stage
from ..device.timeline import Stage, Timeline
from ..memory.bufferpool import BufferPool
from ..memory.chunkstore import CompressedChunkStore
from ..memory.layout import ChunkLayout, GroupPlacement
from ..statevector.kernels import prepare_launch
from ..telemetry import NULL_OBSERVER, get_logger
from .cancel import CancelToken
from .stages import GateStage, PermutationStage
from .sweep import Pass, live_chunks, predict_pass_schedule

__all__ = ["StageProgram", "StageScheduler", "remap_gate_for_group",
           "restrict_diagonal", "stage_programs"]

log = get_logger(__name__)


def restrict_diagonal(
    diag: np.ndarray,
    qubits: Tuple[int, ...],
    fixed_bits: Dict[int, int],
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Restrict a diagonal gate to the qubits not fixed by the chunk id.

    Args:
        diag: length ``2^k`` diagonal over ``qubits``.
        qubits: the gate's qubits (first = LSB of the diagonal index).
        fixed_bits: qubit -> bit value for qubits whose value the chunk id
            determines (global qubits outside the group).

    Returns:
        (restricted diagonal, remaining qubits) — the diagonal over the
        non-fixed qubits with fixed bits substituted.
    """
    remaining = tuple(q for q in qubits if q not in fixed_bits)
    r = len(remaining)
    base = 0
    for j, q in enumerate(qubits):
        if q in fixed_bits and fixed_bits[q]:
            base |= 1 << j
    if r == len(qubits):
        return diag, qubits
    idx = np.full(1 << r, base, dtype=np.int64)
    u = np.arange(1 << r, dtype=np.int64)
    pos = 0
    for j, q in enumerate(qubits):
        if q not in fixed_bits:
            idx |= ((u >> pos) & 1) << j
            pos += 1
    return diag[idx], remaining


def remap_gate_for_group(
    gate: Gate,
    layout: ChunkLayout,
    placement: GroupPlacement,
    group_base_chunk: int,
) -> Optional[Gate]:
    """Rewrite ``gate`` to act on a concatenated group buffer.

    Local qubits keep their positions; group qubits move to their virtual
    positions; diagonal gates get global-out-of-group qubits substituted
    from the chunk id. Returns ``None`` when a restricted diagonal turns out
    to be the identity for this group.
    """
    d = gate.diag if gate.diag is not None else (
        np.diag(gate.matrix) if gate_is_diagonal(gate) else None
    )
    in_group = set(placement.group_qubits)
    if d is not None:
        fixed = {}
        for q in gate.qubits:
            if not layout.is_local(q) and q not in in_group:
                bit_pos = q - layout.chunk_qubits
                fixed[q] = (group_base_chunk >> bit_pos) & 1
        rd, remaining = restrict_diagonal(d, gate.qubits, fixed)
        # The identity tests must be essentially exact — dropping a 1e-6
        # rotation would be a correctness bug, not an optimization.
        if abs(rd - 1.0).max() <= 1e-15:
            return None
        if not remaining:
            # Fully determined by the chunk id: a global phase rd[0].
            scaled = np.array([rd[0], rd[0]], dtype=rd.dtype)
            return make_diagonal_gate((0,), scaled, name="gphase_restricted")
        mapping = {}
        for q in remaining:
            if layout.is_local(q):
                mapping[q] = q
            else:
                i = placement.group_qubits.index(q)
                mapping[q] = placement.virtual_positions[i]
        vq = tuple(mapping[q] for q in remaining)
        return make_diagonal_gate(vq, rd, name=f"{gate.name}_restricted")
    # Non-diagonal: every global qubit must be in the group.
    vq = layout.gate_virtual_qubits(gate.qubits, placement)
    if vq == gate.qubits:
        return gate
    mapping = dict(zip(gate.qubits, vq))
    return gate.remapped(mapping)


class StageProgram:
    """One gate stage's ops lowered into the group-buffer frame, memoised.

    What :func:`remap_gate_for_group` returns for an op depends on the group
    only through the chunk-id bits of the *out-of-group global qubits the op
    touches* — and only for diagonal ops, since a non-diagonal op has all its
    global qubits in the group. Those bits are the op's ``mask``; the lowered
    :class:`GateOp` (``None`` = identity for that pattern, skip) is built on
    first use and kept under ``base_chunk & mask``. Non-diagonal ops have
    mask 0 and lower exactly once per stage.

    Lowering goes all the way down: every group buffer of the stage has
    ``chunk_qubits + len(group_qubits)`` qubits, so the entry carries the
    gate's prepared kernel launch for that width
    (:func:`~repro.statevector.kernels.prepare_launch`) and a group pass
    classifies, reshapes and slices nothing again.

    The key is per op, not per stage: the union of a stage's masks usually
    covers nearly every global bit (5 of 6 on ``qft(16)``'s first stage), so
    a stage-wide key would be distinct for every group and reuse nothing.

    A program belongs to one ``(stage, layout, placement)``. The scheduler
    builds one per execution for a stage it is handed bare; nothing is ever
    cached on the stage object. :class:`~repro.core.MemQSim` keeps the
    programs of a compiled plan with that plan in its plan cache
    (:func:`stage_programs`, ``CachedPlan.programs``), whose key fixes the
    circuit shape, the plan knobs and ``chunk_qubits`` — hence the stages,
    the layout and every placement — so a table can never be read under
    another layout than the one it was built for. A run that hits the cache
    lowers nothing. A plan rebound to other parameter values gets new op
    objects where a parameter went in (and for every fused op), while a
    gate that takes none is bound to the very op it was lowered from;
    ``previous`` (the program of the same stage as it was bound before)
    hands over the rows whose op is still the same object, and only the
    others are lowered again. Tables
    only grow, and an entry is a pure function of its key, so concurrent
    runs sharing a program at worst compute the same entry twice.
    """

    def __init__(self, stage: CompiledGateStage, layout: ChunkLayout,
                 placement: GroupPlacement,
                 previous: Optional["StageProgram"] = None):
        self.layout = layout
        self.placement = placement
        in_group = set(placement.group_qubits)
        c = layout.chunk_qubits
        #: qubits of every group buffer this program's launches are made for
        self.buffer_qubits = c + len(placement.group_qubits)
        #: per op: (op, lowered source gate, fixed-bit mask,
        #: pattern -> GateOp)
        self._rows: List[Tuple[object, Gate, int,
                               Dict[int, Optional[GateOp]]]] = []
        kept = previous._rows if previous is not None else ()
        for i, op in enumerate(stage.ops):
            if i < len(kept) and kept[i][0] is op:
                self._rows.append(kept[i])
                continue
            gate = op.to_gate()
            mask = 0
            if gate_is_diagonal(gate):
                for q in gate.qubits:
                    if q >= c and q not in in_group:
                        mask |= 1 << (q - c)
            self._rows.append((op, gate, mask, {}))

    @property
    def entries(self) -> int:
        """Distinct lowerings built so far (the remap calls actually paid)."""
        return sum(len(memo) for _op, _g, _mask, memo in self._rows)

    def ops_for(self, base_chunk: int) -> Tuple[List[GateOp], int]:
        """``(ops to execute, identity ops skipped)`` for the group whose
        first member is ``base_chunk``."""
        out: List[GateOp] = []
        skipped = 0
        for _op, gate, mask, memo in self._rows:
            pattern = base_chunk & mask
            try:
                op = memo[pattern]
            except KeyError:
                # ``pattern`` agrees with ``base_chunk`` on every bit the
                # remap reads, so it stands in for the whole class.
                rg = remap_gate_for_group(gate, self.layout, self.placement,
                                          pattern)
                op = memo[pattern] = None if rg is None else GateOp(
                    rg, prepare_launch(rg, self.buffer_qubits))
            if op is None:
                skipped += 1
            else:
                out.append(op)
        return out, skipped


def stage_programs(stages: Sequence[object], layout: ChunkLayout,
                   previous: Optional[Sequence[Optional[StageProgram]]] = None,
                   ) -> Tuple[Optional[StageProgram], ...]:
    """A :class:`StageProgram` per compiled gate stage of a plan (``None``
    for every other stage): what :meth:`StageScheduler.run` takes so that
    the lowerings outlive the run. ``previous`` holds the programs of the
    same plan template as it was bound before."""
    if previous is None:
        previous = (None,) * len(stages)
    return tuple(
        StageProgram(s, layout, layout.chunk_groups(s.group_qubits), prev)
        if isinstance(s, CompiledGateStage) else None
        for s, prev in zip(stages, previous))


@dataclass
class SchedulerStats:
    """Counters the results object surfaces."""

    group_passes: int = 0
    #: groups of the full sweep that were all zero and never streamed
    group_passes_skipped: int = 0
    permutation_stages: int = 0
    gates_applied: int = 0
    gates_skipped_identity: int = 0


class StageScheduler:
    """Executes planned stages against a store + device executor."""

    def __init__(
        self,
        layout: ChunkLayout,
        store: CompressedChunkStore,
        executor,
        pool: BufferPool,
        timeline: Optional[Timeline] = None,
        fuse_gates: bool = False,
        observer=None,
        cancel=None,
        schedule=None,
    ):
        """``executor`` is the run's one
        :class:`~repro.device.DeviceExecutor`: every group pass uploads,
        updates and downloads through it.
        ``observer`` is the run's :class:`~repro.telemetry.PassObserver`
        (:meth:`Telemetry.observer() <repro.telemetry.Telemetry.observer>`);
        ``None`` reports to nobody.
        ``fuse_gates`` configures the lazy compile of raw
        :class:`GateStage` inputs (windows priced on the pool's
        buffers) — stages already lowered by
        :func:`repro.compile.compile_stages` run as-is.
        ``cancel`` is an optional :class:`~repro.pipeline.cancel
        .CancelToken` polled at every group-pass boundary: when it fires,
        the current pass finishes (the store stays chunk-consistent) and
        :class:`~repro.pipeline.cancel.JobCancelled` is raised before the
        next pass starts.
        ``schedule`` is an optional plan-exact
        :class:`~repro.memory.hierarchy.AccessSchedule` shared with the
        memory hierarchy; the scheduler advances its cursor per group
        pass (and past permutation barriers) so schedule-driven layers —
        Belady eviction, plan-coldest spilling — always know where in the
        plan execution stands."""
        self.layout = layout
        self.store = store
        self.executor = executor
        self.pool = pool
        self.timeline = timeline if timeline is not None else \
            executor.timeline
        self.fuse_gates = bool(fuse_gates)
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.cancel = cancel if cancel is not None else CancelToken()
        self.schedule = schedule
        #: the running plan's kept stage programs (see :meth:`run`)
        self._programs: Optional[Sequence[Optional[StageProgram]]] = None
        #: the running plan's one device buffer (see :meth:`run`)
        self._device = None
        self.stats = SchedulerStats()

    # -- public ---------------------------------------------------------------

    def _run_stage(self, stage, si: int,
                   groups: Sequence[Tuple[int, Tuple[int, ...]]]) -> None:
        if isinstance(stage, PermutationStage):
            with self.observer.stage(si, "permutation"):
                self._run_permutation(stage, si)
        elif isinstance(stage, (GateStage, CompiledGateStage)):
            if not isinstance(stage, CompiledGateStage):
                # Raw planner stage (direct scheduler users / tests):
                # lower it here; MemQSim pre-compiles the whole plan.
                stage, _ = compile_stage(
                    stage, self.layout, self.fuse_gates,
                    itemsize=self.pool.dtype.itemsize)
            with self.observer.stage(si, "gate", ops=len(stage.ops),
                                     gates=stage.source_gates):
                self._run_gate_stage(stage, si, groups)
        else:
            raise TypeError(f"unknown stage type {type(stage).__name__}")
        # what lands from here to the next pass (a flush) is of no stage
        self.timeline.stage_index = -1

    def run(self, stages: Sequence[object],
            passes: Optional[Sequence[Pass]] = None,
            programs: Optional[Sequence[Optional[StageProgram]]] = None,
            ) -> None:
        """Execute ``stages`` along ``passes``, the run's pass schedule
        (:func:`~repro.pipeline.sweep.predict_pass_schedule`; derived here
        from the store's support set when the caller built none).
        ``programs`` are the stages' :func:`stage_programs`, when the caller
        keeps them across runs; without them every gate stage lowers its
        ops afresh. Returns with the store flushed."""
        if passes is None:
            passes = predict_pass_schedule(stages, self.layout,
                                           live_chunks(self.store))
        groups: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
        widest = 0
        for kind, si, gi, members in passes:
            if kind == "pass":
                groups.setdefault(si, []).append((gi, members))
                widest = max(widest, len(members))
        self._programs = programs
        log.debug("scheduler: running %d stages", len(stages))
        # The store times its own codec calls, and the tiers over and under
        # it their copies; for this run they book them on this timeline,
        # chained by the group that issued them. Afterwards the store books
        # on whatever timeline it did before.
        previous = self.store.report_hops_to(self.timeline)
        # One device buffer per run, as wide as the widest pass that runs
        # (a stage whose passes are all skipped reserves nothing): every
        # pass works in a head of it, and it is freed on every exit.
        self._device = self.executor.alloc(
            widest * self.layout.chunk_size, dtype=self.pool.dtype) \
            if widest else None
        try:
            for si, s in enumerate(stages):
                self.cancel.raise_if_cancelled()
                self._run_stage(s, si, groups.get(si, ()))
            # Leave the store settled — a cache in front writes back, a
            # codec lane lands its pending writes: still this run's hops.
            self.store.flush()
        finally:
            self.store.report_hops_to(previous)
            if self._device is not None:
                self.executor.free(self._device)
                self._device = None

    # -- permutation stages ---------------------------------------------------------

    def _run_permutation(self, stage: PermutationStage, si: int) -> None:
        # Chunk identities change here, and a cache in front of the store
        # flushes: the flush's write-backs are of this stage.
        self.timeline.stage_index = si
        if self.schedule is not None:
            # Reuse does not survive the relabeling; the schedule cursor
            # crosses the matching barrier so next-use queries stay
            # epoch-bounded on the correct side.
            self.schedule.barrier(si)
        t0 = time.perf_counter()
        self.store.permute(stage.perm)
        self.timeline.record(Stage.CPU_UPDATE, t0, time.perf_counter() - t0)
        self.stats.permutation_stages += 1
        self.stats.gates_applied += len(stage.gates)

    # -- gate stages -------------------------------------------------------------------

    def _run_gate_stage(self, stage: CompiledGateStage, si: int,
                        groups: Sequence[Tuple[int, Tuple[int, ...]]]) -> None:
        # A kept program exists for a stage that came compiled (a bare
        # stage, lowered just above, has ``None`` there).
        program = self._programs[si] if self._programs else None
        if program is None:
            program = StageProgram(
                stage, self.layout,
                self.layout.chunk_groups(stage.group_qubits))
        placement = program.placement
        group_size = self.layout.chunk_size << len(placement.group_qubits)
        self.stats.group_passes_skipped += len(placement.groups) - len(groups)
        nbytes = group_size * self.layout.itemsize
        dev = self._device.head(group_size) if groups else None
        for gi, members in groups:
            self.cancel.raise_if_cancelled()
            with self.observer.group_pass(si, gi, members, nbytes):
                self.timeline.stage_index = si
                if self.schedule is not None:
                    self.schedule.begin_pass(si, gi)
                # Advisory hint down the hierarchy: a tiered store promotes
                # this pass's disk-resident blobs before the streaming loop
                # pays per-chunk latencies for them; a codec lane starts
                # this pass's and the next pass's decompress jobs.
                self.store.will_need(members, gi)
                ops = self._ops_for_group(program, members[0])
                self._run_group(gi, members, ops, dev)
            self.stats.group_passes += 1

    def _ops_for_group(self, program: StageProgram,
                       base_chunk: int) -> List[GateOp]:
        """This group's ops from the stage program, booking identity skips.

        Compilation (fusion) happened once per stage and the program lowers
        each op once per fixed-bit pattern; what is left per group is a
        table lookup per op.
        """
        ops, skipped = program.ops_for(base_chunk)
        self.stats.gates_skipped_identity += skipped
        return ops

    def _load_group(self, members: Tuple[int, ...], buf: np.ndarray) -> None:
        cs = self.layout.chunk_size
        for slot, chunk in enumerate(members):
            self.store.load(chunk, out=buf[slot * cs:(slot + 1) * cs])

    def _store_group(self, members: Tuple[int, ...], buf: np.ndarray) -> None:
        cs = self.layout.chunk_size
        for slot, chunk in enumerate(members):
            self.store.store(chunk, buf[slot * cs:(slot + 1) * cs])

    def _device_update(self, gi: int, ops: List[GateOp], view: np.ndarray,
                       dev) -> None:
        """Upload -> kernels -> download for one already-staged group, in
        ``dev``, the run's device buffer cut to the group's size."""
        executor = self.executor
        executor.upload(view, dev, gi)
        if ops:
            executor.run_ops(dev, ops, gi)
            self.stats.gates_applied += len(ops)
        self.observer.device_buffer_live()
        executor.download(dev, view, gi)

    def _run_group(self, gi: int, members: Tuple[int, ...],
                   ops: List[GateOp], dev) -> None:
        """One serial group pass: load -> device update -> store."""
        buf = self.pool.acquire()
        try:
            view = buf[:dev.size]
            self._load_group(members, view)
            self._device_update(gi, ops, view, dev)
            self._store_group(members, view)
        finally:
            self.pool.release(buf)
