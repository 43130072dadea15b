"""The offline stage: partition a circuit into chunk-residency stages.

Every :class:`GateStage` costs one decompress -> kernel -> recompress sweep
over *all* chunks, so the planner's job is to need few of them (paper:
"MEMQSim partitions the input circuit and the corresponding state vector").
It is a list scheduler over the gate dependency DAG that also decides
*where each qubit lives*: a logical -> physical qubit map (``pos`` / ``occ``,
the identity where the plan ends, and where it starts unless it was made
backward) says which qubits are chunk-local right now, gates enter the DAG
on logical qubits and leave it remapped to physical positions, and every
consumer downstream sees physical qubits only.

* **dependencies** — two gates are ordered only if they share a qubit and
  are not both diagonal. Everything else commutes, and the plan is free to
  apply it in another order than the circuit lists it.
* **absorb** — the open stage takes every *ready* gate (all predecessors
  placed) that is diagonal, or whose qubits — seen through the map — are
  chunk-local or inside the stage's footprint. Diagonal gates never force
  grouping: each chunk applies its own restriction of the diagonal (the
  chunk id fixes the global bits).
* **widen** — when nothing ready fits, the footprint grows by one ready
  gate's global positions, as long as the union stays within
  ``max_group_qubits``. Among the candidates the one that unlocks the most
  global-touching successors wins (one step of look-ahead), ties going to
  circuit order.
* **relocate** — when the stage can absorb and widen no more, it decides
  who stays behind before it closes. The footprint's positions and the
  local ones are all inside the group buffer, so their occupants can trade
  places for an in-buffer ``swap(local, global)`` at the end of this same
  stage — no extra sweep. Belady over the gate list: the qubits whose next
  non-diagonal use is furthest away go global; the ones needed next come
  (or stay) local and later gates are relabeled, nothing is swapped back.
  A gate with more global qubits than the cap is just a ready gate nothing
  can widen for: it is *pinned*, its qubits are pulled local ``cap`` per
  stage and held there until it is scheduled.
* **close** — the stage is emitted: its gates in circuit order on physical
  qubits, then its relocation swaps (``Gate.label == RELOCATE``; none
  once nothing is left to run, unless the restore wants them).
* **pure chunk permutations** (X on a qubit at a global position; SWAP
  between two of them) become :class:`PermutationStage`s executed on
  compressed blobs. They end the gate stage before them, so they are
  emitted when nothing else is ready, and consecutive ones merge into one
  relabeling.
* **restore** — after the last gate the plan itself brings every qubit
  home: swap-only stages for local-homed qubits stranded at global
  positions (``cap`` per stage; the last gate stage's own relocation
  already sends home what it can reach), local fix-ups appended to the
  last gate stage, one trailing relabeling for global <-> global order.
  Results, digests, checkpoints and queries never see a permuted state.
* **backward** — for a start state every qubit permutation leaves alone
  (|0...0>) the restore can be planned away: the list scheduler runs on
  the *reversed* gate list with no restore, and the stage list is flipped
  in time (:func:`_flipped`). That plan ends at the identity map by
  construction and starts at whatever map the reversed run ended on; each
  stage's relocations come *before* its gates. Which way is cheaper is
  the caller's call (:func:`repro.core.plan_circuit`).

The plan is a pure function of ``(circuit, layout, max_group_qubits,
direction)``: integer indices and lists throughout, no iteration over
hashed containers of anything but ints. Cost is O(gates x qubits-per-gate)
for the DAG plus, per stage, a scan of the ready gates (at most one per
qubit) and one sort of the chunk-local qubits.

``max_group_qubits`` is derived from the device: a group buffer of
``2^(chunk_qubits + t)`` amplitudes must fit in the arena
:data:`STAGING_BUFFERS` times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import Gate, gate_is_diagonal
from ..device.spec import DeviceSpec
from ..memory.layout import ChunkLayout
from ..telemetry import get_logger
from .stages import GateStage, PermutationStage

log = get_logger(__name__)

__all__ = ["plan_stages", "max_group_qubits_for", "STAGING_BUFFERS",
           "PlanReport", "describe_plan", "trace_qubit_map", "RELOCATE"]

#: group buffers a run books, on the device and in the host pool: the one a
#: pass holds plus one of headroom for a double-buffered pipeline
STAGING_BUFFERS = 2


def max_group_qubits_for(layout: ChunkLayout, device: DeviceSpec) -> int:
    """Largest ``t`` such that :data:`STAGING_BUFFERS` group buffers fit
    the device arena.

    Byte math uses ``layout.itemsize``, so a complex64 layout fits groups
    one qubit wider than complex128 in the same device memory.
    """
    item = layout.itemsize
    t = 0
    while True:
        need = STAGING_BUFFERS * (1 << (layout.chunk_qubits + t + 1)) * item
        if need > device.memory_bytes or layout.chunk_qubits + t + 1 > layout.num_qubits:
            break
        t += 1
    if (1 << layout.chunk_qubits) * item * STAGING_BUFFERS > device.memory_bytes:
        raise ValueError(
            f"chunk of {layout.chunk_qubits} qubits does not fit device memory "
            f"{device.memory_bytes:,}B (x{STAGING_BUFFERS} buffers)"
        )
    return t


def _permutation_of(g: Gate, layout: ChunkLayout) -> Optional[Tuple[int, ...]]:
    """If ``g`` is a pure chunk-id permutation, return it (dst -> src)."""
    c = layout.chunk_qubits
    nc = layout.num_chunks
    if g.name == "x" and not layout.is_local(g.qubits[0]):
        bit = 1 << (g.qubits[0] - c)
        return tuple(k ^ bit for k in range(nc))
    if g.name == "swap":
        a, b = g.qubits
        if not layout.is_local(a) and not layout.is_local(b):
            ba, bb = a - c, b - c
            perm = []
            for k in range(nc):
                va = (k >> ba) & 1
                vb = (k >> bb) & 1
                src = k & ~(1 << ba) & ~(1 << bb) | (vb << ba) | (va << bb)
                perm.append(src)
            return tuple(perm)
    return None


#: ``Gate.label`` of every swap the planner inserts to move a qubit; the
#: circuit's own swaps never carry it, so the map can be read back off a
#: plan (:func:`trace_qubit_map`) without side-band data.
RELOCATE = "relocate"


def _swaps_added(stage: GateStage, swaps: Sequence[Gate]) -> GateStage:
    """``stage`` with the planner's own ``swaps`` appended (slot -1)."""
    stage.gates.extend(swaps)
    stage.slots.extend([-1] * len(swaps))
    return stage


class _GateGraph:
    """The circuit's gates on *logical* qubits and their dependency DAG.

    Parallel lists indexed by circuit position: ``diagonal[i]`` says gate
    ``i`` never needs co-residency, ``succ[i]`` lists the gates that must
    run after it and ``blockers[i]`` counts the gates it still waits for.
    ``uses[q]`` holds the non-diagonal gates on qubit ``q``, latest first,
    so ``uses[q][-1]`` is the qubit's next use (the DAG orders them, so
    they retire from the end).
    """

    def __init__(self, circuit: Circuit, num_qubits: int) -> None:
        self.gates: List[Gate] = list(circuit)
        self.diagonal = [gate_is_diagonal(g) for g in self.gates]
        self.succ: List[List[int]] = [[] for _ in self.gates]
        self.blockers = [0] * len(self.gates)
        self.uses: List[List[int]] = [[] for _ in range(num_qubits)]
        # Per qubit: the last non-diagonal gate, and the diagonal gates
        # since it (they commute with each other, not with it).
        last_dense = [-1] * num_qubits
        diagonals: List[List[int]] = [[] for _ in range(num_qubits)]
        for i, g in enumerate(self.gates):
            before = set()
            for q in g.qubits:
                dense = last_dense[q]
                if self.diagonal[i]:
                    if dense >= 0:
                        before.add(dense)
                    diagonals[q].append(i)
                else:
                    if diagonals[q]:
                        # Each of them already waits for ``dense``.
                        before.update(diagonals[q])
                        diagonals[q] = []
                    elif dense >= 0:
                        before.add(dense)
                    last_dense[q] = i
                    self.uses[q].append(i)
            for b in before:
                self.succ[b].append(i)
            self.blockers[i] = len(before)
        for use in self.uses:
            use.reverse()


class _Planner:
    """One run of the list scheduler (see the module docstring)."""

    def __init__(self, circuit: Circuit, layout: ChunkLayout, cap: int,
                 permutations: bool, restore: bool = True) -> None:
        self.layout = layout
        self.c = layout.chunk_qubits
        self.n = layout.num_qubits
        self.cap = cap
        self.permutations = permutations
        self.restore = restore
        self.graph = _GateGraph(circuit, self.n)
        self.unscheduled = len(self.graph.gates)
        # The qubit map: logical qubit q sits at physical position pos[q],
        # position p holds logical qubit occ[p]. Positions >= c are global.
        self.pos = list(range(self.n))
        self.occ = list(range(self.n))
        self.stages: List[object] = []
        self.footprint = 0            # chunk-id bit mask of the open stage
        self.members: List[int] = []  # gates of the open stage
        # The ready gates (no blockers left), by what the open stage can
        # do with them:
        self.fits: List[int] = []     # nothing global outside the footprint
        self.waiting: List[int] = []  # need a global position it lacks
        self.perms: List[int] = []    # chunk permutations
        #: per waiting/fitting gate: the global positions it needs, as a
        #: chunk-id bit mask under the map in force
        self.need = [0] * len(self.graph.gates)
        #: the oversized gate whose qubits are being pulled local, if any
        self.pinned: Optional[int] = None

    # -- the map ------------------------------------------------------------

    def _physical(self, g: Gate) -> Gate:
        pos = self.pos
        qubits = tuple(pos[q] for q in g.qubits)
        return g if qubits == g.qubits else g.remapped(dict(zip(g.qubits, qubits)))

    def _global_mask(self, i: int) -> int:
        c, pos, mask = self.c, self.pos, 0
        for q in self.graph.gates[i].qubits:
            if pos[q] >= c:
                mask |= 1 << (pos[q] - c)
        return mask

    def _exchange(self, a: int, b: int) -> Gate:
        """Swap the occupants of positions ``a`` and ``b``; the gate doing it."""
        occ, pos = self.occ, self.pos
        occ[a], occ[b] = occ[b], occ[a]
        pos[occ[a]], pos[occ[b]] = a, b
        return Gate("swap", (a, b), label=RELOCATE)

    def _group(self, footprint: int) -> Tuple[int, ...]:
        return tuple(q for q in range(self.c, self.n)
                     if footprint >> (q - self.c) & 1)

    def _mask(self, positions: Sequence[int]) -> int:
        return sum(1 << (p - self.c) for p in positions)

    # -- the frontier -------------------------------------------------------

    def _release(self, i: int) -> None:
        """File ready gate ``i`` under what the open stage can do with it."""
        if self.graph.diagonal[i]:
            self.fits.append(i)
            return
        need = self._global_mask(i)
        name = self.graph.gates[i].name
        if self.permutations and (name == "x" and need
                                  or name == "swap" and need.bit_count() == 2):
            self.perms.append(i)
            return
        self.need[i] = need
        (self.waiting if need & ~self.footprint else self.fits).append(i)

    def _refile(self) -> None:
        """The footprint or the map changed: file the blocked gates again."""
        ready = self.waiting + self.perms
        self.waiting.clear()
        self.perms.clear()
        for i in ready:
            self._release(i)

    def _scheduled(self, i: int) -> None:
        graph = self.graph
        self.unscheduled -= 1
        if not graph.diagonal[i]:
            for q in graph.gates[i].qubits:
                graph.uses[q].pop()
        if i == self.pinned:
            self.pinned = None
        for s in graph.succ[i]:
            graph.blockers[s] -= 1
            if not graph.blockers[s]:
                self._release(s)

    def _unlocks(self, i: int) -> int:
        """How many global-touching gates wait for gate ``i`` alone."""
        graph = self.graph
        return sum(1 for s in graph.succ[i]
                   if graph.blockers[s] == 1 and not graph.diagonal[s]
                   and self._global_mask(s))

    # -- relocate / close / restore -----------------------------------------

    def _pin(self) -> int:
        """Open the stage for an oversized gate; the positions to pull in.

        Nothing ready fits an empty footprint, so every waiting gate has
        more global qubits than the cap. The first in circuit order is
        pinned: its qubits come local ``cap`` per stage and are not given
        up again until it is scheduled, whatever their next use says —
        otherwise a qubit whose earlier gate is itself blocked can keep
        evicting them, and the plan never ends.
        """
        if self.pinned is None:
            self.pinned = min(self.waiting)
        g = self.graph.gates[self.pinned]
        need = self.need[self.pinned]
        surplus = need.bit_count() - self.cap
        if self.cap < 1 or len(g.qubits) > self.c + self.cap:
            raise ValueError(
                f"gate {g} needs {need.bit_count()} co-resident global qubits "
                f"but the device only supports groups of {self.cap} and "
                f"{self.c} local qubits cannot hold the rest; "
                f"increase device memory or reduce chunk size"
            )
        return self._mask(self._group(need)[:min(self.cap, surplus)])

    def _relocate(self, footprint: int) -> List[Gate]:
        """Choose who stays behind at the footprint's positions.

        Local positions and the footprint's are all in the group buffer, so
        their occupants can be exchanged for the price of an in-buffer
        swap. Belady: the qubits whose next non-diagonal use is furthest
        go (or stay) global. A qubit with no use left ranks last of all,
        after it the ones whose home is global — and one leaving for good
        takes its home position when that is being vacated.
        """
        if not footprint:
            return []
        c, occ, uses = self.c, self.occ, self.graph.uses
        never = 2 * len(self.graph.gates)
        held = self.graph.gates[self.pinned].qubits \
            if self.pinned is not None else ()

        def rank(q: int) -> int:
            if q in held:
                return -1
            return 2 * uses[q][-1] if uses[q] else never + (q >= c)

        coming = sorted((rank(occ[p]), p) for p in self._group(footprint))
        going = [(rank(occ[p]), p) for p in range(c)]
        if coming[0][0] >= max(going)[0]:
            return []
        going.sort(reverse=True)
        vacated, leaving = [], []
        for (soon, g), (late, loc) in zip(coming, going):
            if soon >= late:
                break
            vacated.append(g)
            leaving.append(loc)
        homing = [(loc, occ[loc]) for loc in leaving if occ[loc] in vacated]
        for loc, g in homing:
            leaving.remove(loc)
            vacated.remove(g)
        return [self._exchange(loc, g)
                for loc, g in homing + list(zip(leaving, vacated))]

    def _close(self) -> None:
        # Circuit order within the stage is a valid dependency order, and
        # it keeps neighbours the fusion passes expect adjacent.
        slots = sorted(self.members)
        gates = [self._physical(self.graph.gates[i]) for i in slots]
        group = self._group(self.footprint)
        # With nothing left to run, moving a qubit only serves the restore.
        swaps = self._relocate(self.footprint) \
            if self.restore or self.unscheduled else []
        self.stages.append(_swaps_added(GateStage(group, gates, slots), swaps))
        self.members.clear()
        self.footprint = 0
        if swaps:
            self._refile()

    def _permute(self, perm: Tuple[int, ...], gates: List[Gate]) -> None:
        """Append a chunk permutation (its ``gates`` on physical qubits) to
        the plan; adjacent ones merge into one relabeling."""
        stages = self.stages
        if stages and isinstance(stages[-1], PermutationStage):
            prev: PermutationStage = stages[-1]
            # composed(dst) = prev.perm[perm[dst]]  (apply prev, then this)
            composed = tuple(prev.perm[src] for src in perm)
            stages[-1] = PermutationStage(composed, prev.gates + gates)
        else:
            stages.append(PermutationStage(perm, gates))

    def _restore(self) -> None:
        """Bring every qubit home, so no consumer ever sees the map."""
        c, n, occ = self.c, self.n, self.occ
        while True:
            # Local-homed qubits stranded at global positions: each has to
            # cross back, ``cap`` per swap-only stage.
            stranded = [p for p in range(c, n) if occ[p] < c][:self.cap]
            if not stranded:
                break
            self.footprint = self._mask(stranded)
            self._close()
        fixups = []
        for p in range(c):
            while occ[p] != p:
                fixups.append(self._exchange(p, occ[p]))
        if fixups:
            last = max(i for i, s in enumerate(self.stages)
                       if isinstance(s, GateStage))
            _swaps_added(self.stages[last], fixups)
        if occ[c:] == list(range(c, n)):
            return
        # Global <-> global order. As one relabeling, chunk ``dst`` is the
        # old chunk whose bit j is dst's bit for the qubit now at c + j.
        chunk = np.arange(self.layout.num_chunks)
        perm = sum((chunk >> (occ[c + j] - c) & 1) << j for j in range(n - c))
        swaps = []
        for p in range(c, n):
            while occ[p] != p:
                swaps.append(self._exchange(p, occ[p]))
        if self.permutations:
            self._permute(tuple(perm.tolist()), swaps)
            return
        for g in swaps:
            if self.cap >= 2:
                self.stages.append(_swaps_added(
                    GateStage(tuple(sorted(g.qubits))), [g]))
            else:
                # No relabeling and no room for both: through local 0.
                a, b = g.qubits
                for via in (a, b, a):
                    self.stages.append(_swaps_added(GateStage((via,)), [
                        Gate("swap", (0, via), label=RELOCATE)]))

    def run(self) -> List[object]:
        graph = self.graph
        for i in range(len(graph.gates)):
            if not graph.blockers[i]:
                self._release(i)
        while self.fits or self.waiting or self.perms:
            while self.fits:
                i = self.fits.pop()
                self.members.append(i)
                self._scheduled(i)
            # Nothing more fits as is: widen the footprint by the waiting
            # gate that unlocks the most (ties to circuit order), if the
            # cap allows.
            widen = max(
                (i for i in self.waiting
                 if (self.footprint | self.need[i]).bit_count() <= self.cap),
                key=lambda i: (self._unlocks(i), -i), default=None)
            if widen is not None:
                self.footprint |= self.need[widen]
                self._refile()
                continue
            if self.waiting and not self.footprint:
                self.footprint = self._pin()
            if self.members or self.footprint:
                self._close()
            if self.fits or self.waiting:
                continue  # the next stage opens on one of them
            # Only permutations are ready. They cost no codec traffic but
            # end the stage before them, so they go last; ones that become
            # ready in this loop join the same relabeling.
            for i in self.perms:
                g = self._physical(graph.gates[i])
                self._permute(_permutation_of(g, self.layout), [g])
                self._scheduled(i)
            self.perms.clear()
        if self.restore:
            self._restore()
        return self.stages


def _flipped(stages: Sequence[object], num_gates: int) -> List[object]:
    """The plan of the reversed circuit, run the other way in time.

    A stage of it is its gates in reversed-circuit order, then its
    relocations; reversed, that is the relocations undone (a swap is its
    own inverse) and then the gates in circuit order, so one list reversal
    per stage does it. Slots counted from the end count from the front
    again, and a relabeling run backwards is its inverse.
    """
    out: List[object] = []
    for s in reversed(stages):
        if isinstance(s, PermutationStage):
            inverse = [0] * len(s.perm)
            for dst, src in enumerate(s.perm):
                inverse[src] = dst
            out.append(PermutationStage(tuple(inverse), s.gates[::-1]))
        else:
            out.append(GateStage(s.group_qubits, s.gates[::-1],
                                 [num_gates - 1 - i if i >= 0 else -1
                                  for i in reversed(s.slots)]))
    return out


def plan_stages(
    circuit: Circuit,
    layout: ChunkLayout,
    max_group_qubits: int,
    enable_permutation_stages: bool = True,
    backward: bool = False,
) -> List[object]:
    """Partition ``circuit`` into execution stages (see module docstring).

    ``backward`` plans the reversed gate list without a restore and flips
    the result in time: the plan ends at the identity map by construction
    and starts at whatever map the reversed run ended on — so it is only
    for a start state every qubit permutation leaves alone, |0...0>.
    """
    if max_group_qubits < 0:
        raise ValueError("max_group_qubits must be >= 0")
    if backward:
        stages = _flipped(_Planner(circuit[::-1], layout, max_group_qubits,
                                   enable_permutation_stages,
                                   restore=False).run(), len(circuit))
    else:
        stages = _Planner(circuit, layout, max_group_qubits,
                          enable_permutation_stages).run()
    log.debug("planned %d gates into %d stages (t_max=%d, %s)",
              len(circuit), len(stages), max_group_qubits,
              "backward" if backward else "forward")
    return stages


Move = Tuple[int, int, int]


def _moved(occ: List[int], gates: Sequence[Gate]) -> List[Move]:
    """Apply ``gates``' relocations to ``occ``; ``(logical qubit, from,
    to)`` for each qubit they move."""
    moves: List[Move] = []
    for g in gates:
        if g.label == RELOCATE:
            a, b = g.qubits
            moves += [(occ[a], a, b), (occ[b], b, a)]
            occ[a], occ[b] = occ[b], occ[a]
    return moves


def trace_qubit_map(stages: Sequence[object], num_qubits: int
                    ) -> Iterator[Tuple[object, List[int], List[Move],
                                        List[Move]]]:
    """Replay a plan's qubit map: ``(stage, occ, front, back)`` per stage.

    ``occ[p]`` is the logical qubit at physical position ``p`` while the
    stage's own gates run; ``front`` and ``back`` list ``(logical qubit,
    from, to)`` for the relocation swaps before and after them (a stage of
    relocations alone has only ``back``). Every plan ends at the identity
    map, so the start map is what undoing all its moves from there gives:
    the identity again for a forward plan, any map for a backward one.
    """
    occ = list(range(num_qubits))
    for g in reversed([g for s in stages for g in s.gates]):
        if g.label == RELOCATE:
            a, b = g.qubits
            occ[a], occ[b] = occ[b], occ[a]
    for stage in stages:
        gates = stage.gates
        first = next((i for i, g in enumerate(gates) if g.label != RELOCATE),
                     0)
        front = _moved(occ, gates[:first])
        during = list(occ)
        yield stage, during, front, _moved(occ, gates[first:])


@dataclass
class PlanReport:
    """Summary statistics of a stage plan (experiment A4's fingerprint)."""

    num_stages: int
    num_gate_stages: int
    num_permutation_stages: int
    num_local_stages: int
    gates_total: int
    gates_in_local_stages: int
    max_group_size: int
    group_passes: int  # total (stage, group) executions = codec traffic unit


def describe_plan(stages: Sequence[object], layout: ChunkLayout) -> PlanReport:
    """Compute the plan fingerprint used by benchmarks."""
    gate_stages = [s for s in stages if isinstance(s, GateStage)]
    perm_stages = [s for s in stages if isinstance(s, PermutationStage)]
    local = [s for s in gate_stages if s.is_local]
    passes = 0
    max_group = 0
    for s in gate_stages:
        t = s.num_group_qubits
        max_group = max(max_group, t)
        passes += layout.num_chunks >> t  # number of groups in this stage
    return PlanReport(
        num_stages=len(stages),
        num_gate_stages=len(gate_stages),
        num_permutation_stages=len(perm_stages),
        num_local_stages=len(local),
        gates_total=sum(len(s.gates) for s in gate_stages)
        + sum(len(s.gates) for s in perm_stages),
        gates_in_local_stages=sum(len(s.gates) for s in local),
        max_group_size=max_group,
        group_passes=passes,
    )
