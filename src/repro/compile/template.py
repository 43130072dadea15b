"""Plan templates: what lowering *decides*, kept apart from the numbers.

Everything the planner and the passes decide — which stage a gate lands in,
where its qubits live, which gates fold, merge or fuse — reads gate names
and qubits only (diagonality is a property of the name, or of a payload
gate's operator, never of an angle). Those are a circuit's *shape*
(:meth:`repro.circuits.Circuit.shape_and_values`), so the decisions are
taken once per shape and recorded as one :class:`Recipe` per compiled op:

* :class:`GateRecipe` — one source gate at its physical qubits;
* :class:`FoldRecipe` — the product of a single-qubit run;
* :class:`MergeRecipe` — one stored diagonal over a run of diagonals;
* :class:`WindowRecipe` — the dense unitary of a contiguous window.

A recipe turns into an op when it is given parameter values:
``recipe.op(gates)`` reads them from ``gates[slot]`` (the circuit being
bound) and multiplies out. That evaluation is the only place the compile
layer does arithmetic — a first compile is "lower, then bind", exactly what
a later rebind repeats — so a plan bound to a circuit is bit-identical
whether the template was lowered from that circuit or from another of its
shape. Recipes, :class:`StageTemplate` and :class:`PlanTemplate` are
immutable: any number of threads may bind one template at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from ..circuits.gates import Gate
from .ir import CompiledGateStage, CompileReport, FusedOp, GateOp

__all__ = ["Recipe", "GateRecipe", "FoldRecipe", "MergeRecipe",
           "WindowRecipe", "StageTemplate", "PlanTemplate"]

#: the circuit whose values a template is bound to; ``None`` binds every
#: recipe to the gates the template was lowered from
Gates = Optional[Sequence[Gate]]


class Recipe:
    """How one op is made from source gates.

    ``diagonal`` says which form :meth:`value` returns: the diagonal vector
    (length ``2^k``) or the dense ``2^k x 2^k`` unitary over ``qubits``.
    """

    qubits: Tuple[int, ...]
    diagonal: bool
    #: names of the source gates, in order (provenance)
    sources: Tuple[str, ...]

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def name(self) -> str:
        return "fused_diag" if self.diagonal else "fused"

    def value(self, gates: Gates) -> np.ndarray:
        raise NotImplementedError

    @property
    def fixed(self) -> bool:
        """True when the shape alone fixes :meth:`value` (no parameters);
        a recipe made of ``parts`` is fixed when all of them are."""
        return all(part.fixed for part in self.parts)

    def matrix(self, gates: Gates) -> np.ndarray:
        """The dense unitary, whichever form :meth:`value` has."""
        v = self.value(gates)
        return np.diag(v) if self.diagonal else v

    def op(self, gates: Gates) -> Any:
        """The compiled op for the circuit ``gates``."""
        v = self.value(gates)
        if self.diagonal:
            return FusedOp(self.qubits, diag=v, sources=self.sources)
        return FusedOp(self.qubits, matrix=v, sources=self.sources)


@dataclass(frozen=True, eq=False)
class GateRecipe(Recipe):
    """One source gate, passed through at its physical qubits.

    ``source`` is the op as lowered from the circuit the template was made
    from. ``slot`` is the position in the circuit of the gate whose
    parameters it takes, or -1 when there is nothing to take: the gate has
    no parameters (shape alone fixes it) or the planner inserted it.
    """

    source: Any
    slot: int
    diagonal: bool

    @property
    def qubits(self) -> Tuple[int, ...]:
        return self.source.qubits

    @property
    def name(self) -> str:
        return self.source.name

    @property
    def sources(self) -> Tuple[str, ...]:
        return getattr(self.source, "sources", None) or (self.source.name,)

    @property
    def fixed(self) -> bool:
        return self.slot < 0

    def _gate(self, gates: Gates) -> Gate:
        # Operators do not depend on which qubits they act on, so the
        # circuit's own (logical-qubit) gate serves for the numbers.
        if gates is None or self.slot < 0:
            return self.source.to_gate()
        return gates[self.slot]

    def matrix(self, gates: Gates) -> np.ndarray:
        return self._gate(gates).matrix

    def value(self, gates: Gates) -> np.ndarray:
        g = self._gate(gates)
        if not self.diagonal:
            return g.matrix
        return g.diag if g.diag is not None else np.diag(g.matrix)

    def op(self, gates: Gates) -> Any:
        if gates is None or self.slot < 0:
            return self.source
        g, qubits = gates[self.slot], self.source.qubits
        if g.qubits != qubits:
            g = g.remapped(dict(zip(g.qubits, qubits)))
        return GateOp(g)


def _sources(parts: Sequence[Recipe]) -> Tuple[str, ...]:
    return tuple(name for part in parts for name in part.sources)


@dataclass(frozen=True, eq=False)
class FoldRecipe(Recipe):
    """A run of single-qubit ops on one qubit, multiplied out. An
    all-diagonal run stays a 2-entry stored diagonal."""

    qubits: Tuple[int, ...]
    parts: Tuple[Recipe, ...]
    diagonal: bool
    sources: Tuple[str, ...]

    @classmethod
    def of(cls, qubit: int, parts: Sequence[Recipe]) -> "FoldRecipe":
        return cls((qubit,), tuple(parts), all(p.diagonal for p in parts),
                   _sources(parts))

    def value(self, gates: Gates) -> np.ndarray:
        if self.diagonal:
            merged = self.parts[0].value(gates).astype(np.complex128,
                                                       copy=True)
            for part in self.parts[1:]:
                merged = merged * part.value(gates)
            return merged
        m = self.parts[0].matrix(gates)
        for part in self.parts[1:]:
            m = part.matrix(gates) @ m
        return m


@dataclass(frozen=True, eq=False)
class MergeRecipe(Recipe):
    """A run of diagonal ops as one stored diagonal over the sorted union
    of their qubits. ``gathers[i]`` spreads part ``i``'s diagonal over the
    union's index space (it depends on qubits only)."""

    qubits: Tuple[int, ...]
    parts: Tuple[Recipe, ...]
    gathers: Tuple[np.ndarray, ...]
    sources: Tuple[str, ...]
    diagonal = True

    @classmethod
    def of(cls, parts: Sequence[Recipe]) -> "MergeRecipe":
        qubits = tuple(sorted({q for part in parts for q in part.qubits}))
        pos = {q: i for i, q in enumerate(qubits)}
        u = np.arange(1 << len(qubits), dtype=np.int64)
        gathers = []
        for part in parts:
            idx = np.zeros_like(u)
            for j, q in enumerate(part.qubits):
                idx |= ((u >> pos[q]) & 1) << j
            gathers.append(idx)
        return cls(qubits, tuple(parts), tuple(gathers), _sources(parts))

    def value(self, gates: Gates) -> np.ndarray:
        total = np.ones(1 << len(self.qubits), dtype=np.complex128)
        for part, idx in zip(self.parts, self.gathers):
            total *= part.value(gates)[idx]
        return total


_ZERO = np.zeros(1, dtype=np.complex128)
_ZERO.setflags(write=False)


@dataclass(frozen=True, eq=False)
class WindowRecipe(Recipe):
    """Contiguous ops fused into one dense unitary over the sorted union of
    their qubits.

    The window's unitary is the product of its parts, each placed in the
    window's ``2^k x 2^k`` index space. Where a part lands depends on qubits
    only, so :meth:`of` works it out once: ``maps[i]`` gathers part ``i``'s
    operator into that space — for a diagonal part its ``2^k`` diagonal,
    for a dense one its ``2^k x 2^k`` matrix, whose entries between indices
    that differ off the part's qubits read the zero appended to the
    flattened operator. A part with no parameters is placed once, in
    ``placed[i]``.
    """

    qubits: Tuple[int, ...]
    parts: Tuple[Recipe, ...]
    maps: Tuple[np.ndarray, ...]
    placed: Tuple[Optional[np.ndarray], ...]
    sources: Tuple[str, ...]
    diagonal = False

    @classmethod
    def of(cls, parts: Sequence[Recipe]) -> "WindowRecipe":
        qubits = tuple(sorted({q for part in parts for q in part.qubits}))
        pos = {q: i for i, q in enumerate(qubits)}
        u = np.arange(1 << len(qubits), dtype=np.intp)
        maps, placed = [], []
        for part in parts:
            # bits of each window index on the part's qubits, in its order
            local = np.zeros_like(u)
            for j, q in enumerate(part.qubits):
                local |= ((u >> pos[q]) & 1) << j
            if part.diagonal:
                idx = local
            else:
                p = len(part.qubits)
                rest = u & ~sum(1 << pos[q] for q in part.qubits)
                idx = np.where(rest[:, None] == rest[None, :],
                               (local[:, None] << p) | local[None, :],
                               1 << 2 * p)
            idx.setflags(write=False)
            maps.append(idx)
            fixed = None
            if part.fixed:
                fixed = _place(part, part.value(None), idx)
                fixed.setflags(write=False)
            placed.append(fixed)
        return cls(qubits, tuple(parts), tuple(maps), tuple(placed),
                   _sources(parts))

    def value(self, gates: Gates) -> np.ndarray:
        # At most one gather and one product per part, all on 2^k x 2^k
        # matrices; the first part starts the product.
        u = None
        for part, idx, fixed in zip(self.parts, self.maps, self.placed):
            e = fixed if fixed is not None \
                else _place(part, part.value(gates), idx)
            if part.diagonal:
                u = np.diag(e) if u is None else e[:, None] * u
            else:
                u = e if u is None else e @ u
        return u


def _place(part: Recipe, v: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``part``'s operator ``v`` gathered into a window by ``idx``."""
    if part.diagonal:
        return v[idx]
    return np.concatenate((v.reshape(-1), _ZERO))[idx]


@dataclass(frozen=True)
class StageTemplate:
    """One gate stage, lowered: a recipe per compiled op."""

    group_qubits: Tuple[int, ...]
    recipes: Tuple[Recipe, ...]
    #: how many source gates the stage's ops come from
    source_gates: int

    def bind(self, gates: Gates = None) -> CompiledGateStage:
        return CompiledGateStage(self.group_qubits,
                                 tuple(r.op(gates) for r in self.recipes),
                                 source_gates=self.source_gates)


@dataclass(frozen=True)
class PlanTemplate:
    """A whole plan, lowered: :class:`StageTemplate` per gate stage, every
    other stage (permutations, stages compiled elsewhere) as it came.
    ``report`` holds the pass counts, which are the same for every circuit
    of the shape; ``seconds`` is filled in per binding."""

    stages: Tuple[Any, ...]
    report: CompileReport
