"""Hoist qubit permutations to the front of the circuit.

A ``swap`` moves no amplitude anywhere a relabeling of the wires would not:
``SWAP(a, b) · G(q) = G(τ q) · SWAP(a, b)`` with ``τ`` the transposition of
``a`` and ``b``. Walking the circuit backwards, every swap therefore turns
into an update of a wire map and every earlier gate is re-emitted on its
relabelled qubits, until the circuit reads

    C = C'' · Π

— a swap-free circuit ``C''`` behind one front permutation ``Π``. The pass
reads gate names and qubits only, so like every other decision of the
compile layer it is taken once per circuit *shape*.

What it is for: in the chunked pipeline a ``swap(local, global)`` is a full
decompress -> exchange -> recompress sweep of the state that does no
arithmetic. A run that starts from |0...0> can drop ``Π`` altogether
(``Π|0...0> = |0...0>``) and stream ``C''`` alone. Any other start state
would have to be permuted first, which costs the sweeps the pass saved, so
:class:`~repro.core.MemQSim` plans such a run's circuit as written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..circuits.circuit import Circuit

__all__ = ["Hoisted", "hoist_permutations"]


@dataclass(frozen=True)
class Hoisted:
    """``C = C'' · Π``: what :func:`hoist_permutations` makes of a circuit."""

    #: ``C''``: the source circuit's other gates, in order, on relabelled
    #: qubits
    circuit: Circuit
    #: ``Π``: what starts on wire ``q`` enters ``C''`` on wire
    #: ``permutation[q]``
    permutation: Tuple[int, ...]
    #: per gate of ``circuit``, its position in the source circuit (where
    #: a binding reads that gate's parameter values)
    slots: Tuple[int, ...]
    #: how many swaps became part of ``Π``; with none, ``circuit`` is the
    #: source circuit itself
    swaps: int


def hoist_permutations(circuit: Circuit) -> Hoisted:
    """Split ``circuit`` into a swap-free circuit and a front permutation.

    Invariant of the backward walk: the gates seen so far equal
    ``(emitted gates) · P_wire``, where ``P_wire`` sends wire ``q`` to
    ``wire[q]``. An earlier gate commutes through ``P_wire`` onto
    ``wire[q]``; an earlier ``swap(a, b)`` is absorbed into it, after which
    ``a`` leads where ``b`` led and the other way round.
    """
    gates = circuit.gates
    wire = list(range(circuit.num_qubits))
    emitted, slots = [], []
    for slot in range(len(gates) - 1, -1, -1):
        g = gates[slot]
        if g.name == "swap":
            a, b = g.qubits
            wire[a], wire[b] = wire[b], wire[a]
            continue
        qubits = tuple(wire[q] for q in g.qubits)
        emitted.append(g if qubits == g.qubits
                       else g.remapped(dict(zip(g.qubits, qubits))))
        slots.append(slot)
    swaps = len(gates) - len(emitted)
    if not swaps:
        return Hoisted(circuit, tuple(wire), tuple(range(len(gates))), 0)
    emitted.reverse()
    slots.reverse()
    return Hoisted(Circuit(circuit.num_qubits, emitted, name=circuit.name),
                   tuple(wire), tuple(slots), swaps)
