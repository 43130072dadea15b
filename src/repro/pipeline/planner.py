"""The offline stage: partition a circuit into chunk-residency stages.

Every :class:`GateStage` costs one decompress -> kernel -> recompress sweep
over *all* chunks, so the planner's job is to need few of them (paper:
"MEMQSim partitions the input circuit and the corresponding state vector").
It is a list scheduler over the gate dependency DAG, not a walk in circuit
order:

* **dependencies** — two gates are ordered only if they share a qubit and
  are not both diagonal. Everything else commutes, and the plan is free to
  apply it in another order than the circuit lists it.
* **absorb** — the open stage takes every *ready* gate (all predecessors
  placed) that is diagonal, chunk-local, or whose global qubits lie inside
  the stage's footprint. Diagonal gates never force grouping: each chunk
  applies its own restriction of the diagonal (the chunk id fixes the
  global bits).
* **widen** — when nothing ready fits, the footprint grows by one ready
  gate's global qubits, as long as the union stays within
  ``max_group_qubits``. Among the candidates the one that unlocks the most
  global-touching successors wins (one step of look-ahead), ties going to
  circuit order.
* **close** — only when no ready gate fits and none can be added is the
  stage closed and a new one opened.
* **pure chunk permutations** (X on a global qubit; SWAP between global
  qubits) become :class:`PermutationStage`s executed on compressed blobs.
  They end the gate stage before them, so they are emitted when nothing
  else is ready, and consecutive ones merge into one relabeling.
* a gate with more global qubits than the cap is lowered to
  swap-in / gate / swap-back first (:func:`_lower_oversized_gate`).

The plan is a pure function of ``(circuit, layout, max_group_qubits)``:
integer indices and lists throughout, no iteration over hashed containers
of anything but ints. Cost is O(gates x qubits-per-gate) for the DAG plus,
per stage, a scan of the ready gates (at most one per qubit).

``max_group_qubits`` is derived from the device: a group buffer of
``2^(chunk_qubits + t)`` amplitudes must fit in the arena (with one buffer
of headroom for double-buffered pipelines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..circuits.circuit import Circuit
from ..circuits.gates import Gate, gate_is_diagonal, make_gate
from ..device.spec import DeviceSpec
from ..memory.layout import ChunkLayout
from ..telemetry import get_logger
from .stages import GateStage, PermutationStage

log = get_logger(__name__)

__all__ = ["plan_stages", "max_group_qubits_for", "PlanReport", "describe_plan"]


def max_group_qubits_for(layout: ChunkLayout, device: DeviceSpec,
                         double_buffer: bool = True) -> int:
    """Largest ``t`` such that a group buffer fits the device arena.

    Byte math uses ``layout.itemsize``, so a complex64 layout fits groups
    one qubit wider than complex128 in the same device memory.
    """
    copies = 2 if double_buffer else 1
    item = layout.itemsize
    t = 0
    while True:
        need = copies * (1 << (layout.chunk_qubits + t + 1)) * item
        if need > device.memory_bytes or layout.chunk_qubits + t + 1 > layout.num_qubits:
            break
        t += 1
    if (1 << layout.chunk_qubits) * item * copies > device.memory_bytes:
        raise ValueError(
            f"chunk of {layout.chunk_qubits} qubits does not fit device memory "
            f"{device.memory_bytes:,}B (x{copies} buffers)"
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


def _lower_oversized_gate(g: Gate, layout: ChunkLayout, max_group_qubits: int,
                          homes_used: int) -> List[Gate]:
    """SWAP-conjugate a gate whose global-qubit count exceeds the cap.

    Classic distributed-SV lowering: swap surplus global qubits with unused
    local qubits, apply the relabeled gate, swap back. Each inserted
    ``swap(local, global)`` touches a single global qubit, so it always fits
    a cap of >= 1.

    The homes rotate through the free local qubits: ``homes_used`` is how
    many the circuit's earlier lowerings took, and this one starts where
    they stopped. Parking every surplus qubit on the lowest free local
    would chain all lowered gates through qubit 0 — a dependency the
    circuit does not have, and one that keeps them out of each other's
    stages.
    """
    gq = sorted(layout.global_qubits(g.qubits))
    surplus = len(gq) - max_group_qubits
    free_locals = [q for q in range(layout.chunk_qubits) if q not in g.qubits]
    if max_group_qubits < 1 or surplus > len(free_locals):
        raise ValueError(
            f"gate {g} needs {len(gq)} co-resident global qubits but the "
            f"device only supports groups of {max_group_qubits} and only "
            f"{len(free_locals)} local qubits are free for swap lowering; "
            f"increase device memory or reduce chunk size"
        )
    victims = gq[:surplus]
    first = homes_used % len(free_locals)
    homes = (free_locals[first:] + free_locals[:first])[:surplus]
    mapping = {q: q for q in g.qubits}
    out: List[Gate] = []
    for loc, glob in zip(homes, victims):
        out.append(make_gate("swap", (loc, glob)))
        mapping[glob] = loc
    out.append(g.remapped(mapping))
    for loc, glob in zip(homes, victims):
        out.append(make_gate("swap", (loc, glob)))
    return out


class _GateGraph:
    """The lowered gate list and its dependency DAG, as parallel lists.

    For gate ``i`` (an index into ``gates``, which is in circuit order):
    ``need[i]`` is the bit mask over chunk-id bits of the global qubits it
    must have co-resident — 0 for diagonal gates, chunk-local gates and
    permutations; ``perm[i]`` is its chunk permutation, if it is one;
    ``succ[i]`` lists the gates that must run after it and ``blockers[i]``
    counts the gates it still waits for.
    """

    def __init__(self, circuit: Circuit, layout: ChunkLayout,
                 max_group_qubits: int, permutations: bool) -> None:
        self.layout = layout
        self.cap = max_group_qubits
        self.permutations = permutations
        self.gates: List[Gate] = []
        self.need: List[int] = []
        self.perm: List[Optional[Tuple[int, ...]]] = []
        self.succ: List[List[int]] = []
        self.blockers: List[int] = []
        self._homes_used = 0
        # Per qubit: the last non-diagonal gate, and the diagonal gates
        # since it (they commute with each other, not with it).
        self._last_dense = [-1] * layout.num_qubits
        self._diagonals: List[List[int]] = [[] for _ in range(layout.num_qubits)]
        for g in circuit:
            self._add(g)

    def _add(self, g: Gate) -> None:
        c = self.layout.chunk_qubits
        perm = _permutation_of(g, self.layout) if self.permutations else None
        diagonal = perm is None and gate_is_diagonal(g)
        need = 0
        if perm is None and not diagonal:
            for q in g.qubits:
                if q >= c:
                    need |= 1 << (q - c)
            if need.bit_count() > self.cap:
                pieces = _lower_oversized_gate(g, self.layout, self.cap,
                                               self._homes_used)
                self._homes_used += len(pieces) // 2
                for piece in pieces:
                    self._add(piece)
                return
        i = len(self.gates)
        before = set()
        for q in g.qubits:
            dense = self._last_dense[q]
            if diagonal:
                if dense >= 0:
                    before.add(dense)
                self._diagonals[q].append(i)
            else:
                if self._diagonals[q]:
                    # Each of them already waits for ``dense``.
                    before.update(self._diagonals[q])
                    self._diagonals[q] = []
                elif dense >= 0:
                    before.add(dense)
                self._last_dense[q] = i
        for b in before:
            self.succ[b].append(i)
        self.gates.append(g)
        self.need.append(need)
        self.perm.append(perm)
        self.succ.append([])
        self.blockers.append(len(before))


def plan_stages(
    circuit: Circuit,
    layout: ChunkLayout,
    max_group_qubits: int,
    enable_permutation_stages: bool = True,
) -> List[object]:
    """Partition ``circuit`` into execution stages (see module docstring)."""
    if max_group_qubits < 0:
        raise ValueError("max_group_qubits must be >= 0")
    graph = _GateGraph(circuit, layout, max_group_qubits,
                       enable_permutation_stages)
    gates, need, perm_of = graph.gates, graph.need, graph.perm
    succ, blockers = graph.succ, graph.blockers
    c = layout.chunk_qubits

    stages: List[object] = []
    footprint = 0            # chunk-id bit mask of the open stage's group
    members: List[int] = []  # gates of the open stage
    # The ready gates (no blockers left), by what the open stage can do
    # with them:
    fits: List[int] = []     # nothing global outside the footprint: absorb
    waiting: List[int] = []  # need a global qubit the footprint lacks
    perms: List[int] = []    # chunk permutations

    def release(i: int) -> None:
        if perm_of[i] is not None:
            perms.append(i)
        elif need[i] & ~footprint:
            waiting.append(i)
        else:
            fits.append(i)

    def scheduled(i: int) -> None:
        for s in succ[i]:
            blockers[s] -= 1
            if not blockers[s]:
                release(s)

    def unlocks(i: int) -> int:
        """How many global-touching gates wait for gate ``i`` alone."""
        return sum(1 for s in succ[i]
                   if blockers[s] == 1 and (need[s] or perm_of[s] is not None))

    for i in range(len(gates)):
        if not blockers[i]:
            release(i)
    while fits or waiting or perms:
        while fits:
            i = fits.pop()
            members.append(i)
            scheduled(i)
        # Nothing more fits as is: widen the footprint by the waiting gate
        # that unlocks the most (ties to circuit order), if the cap allows.
        widen = max(
            (i for i in waiting
             if (footprint | need[i]).bit_count() <= max_group_qubits),
            key=lambda i: (unlocks(i), -i), default=None)
        if widen is not None:
            footprint |= need[widen]
            ready = waiting[:]
            waiting.clear()
            for i in ready:
                release(i)
            continue
        if members:
            # Circuit order within the stage is a valid dependency order,
            # and it keeps neighbours the fusion passes expect adjacent.
            members.sort()
            group = tuple(q for q in range(c, layout.num_qubits)
                          if footprint >> (q - c) & 1)
            stages.append(GateStage(group, [gates[i] for i in members]))
            members.clear()
            footprint = 0
        if waiting:
            continue  # the next stage opens on one of them
        # Only permutations are ready. They cost no codec traffic but end
        # the stage before them, so they go last; ones that become ready
        # in this loop join the same relabeling.
        for i in perms:
            perm = perm_of[i]
            if stages and isinstance(stages[-1], PermutationStage):
                prev: PermutationStage = stages[-1]
                # composed(dst) = prev.perm[perm[dst]]  (apply prev, then g)
                composed = tuple(prev.perm[perm[d]] for d in range(len(perm)))
                stages[-1] = PermutationStage(composed, prev.gates + [gates[i]])
            else:
                stages.append(PermutationStage(perm, [gates[i]]))
            scheduled(i)
        perms.clear()
    log.debug("planned %d gates into %d stages (t_max=%d)",
              len(gates), len(stages), max_group_qubits)
    return stages


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
