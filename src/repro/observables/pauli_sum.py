"""Pauli-sum observables (Hamiltonians) and their streamed evaluation.

A :class:`PauliSum` is a real-linear combination of Pauli strings —
the form every VQE/QAOA cost function takes. It evaluates against

* a dense :class:`~repro.statevector.StateVector` (term by term), or
* a chunked :class:`~repro.core.MemQSimResult` *in one streaming pass*:
  all terms share each chunk decompression and all terms with one X-mask
  share one reduction, and a pair of partner chunks is read once for both
  of its halves, so evaluating an m-term Hamiltonian costs one pass over
  the store plus one load per partner pair instead of m full passes.

Constructors cover the standard model Hamiltonians the examples use:
MaxCut from a networkx graph, transverse-field Ising, and Heisenberg XXZ
chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..statevector.pauli import PauliString, parse_pauli, pauli_phase
from ..statevector.statevector import StateVector

__all__ = ["PauliTerm", "PauliSum", "maxcut_hamiltonian", "ising_hamiltonian",
           "heisenberg_hamiltonian"]


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string."""

    coefficient: float
    pauli: str
    qubits: Tuple[int, ...]

    def parsed(self) -> PauliString:
        return parse_pauli(self.pauli, self.qubits)

    def __str__(self) -> str:
        ops = " ".join(f"{p}{q}" for p, q in zip(self.pauli, self.qubits))
        return f"{self.coefficient:+g} * {ops}" if ops else f"{self.coefficient:+g}"


class PauliSum:
    """A real-weighted sum of Pauli strings."""

    def __init__(self, terms: Optional[Iterable[PauliTerm]] = None,
                 constant: float = 0.0):
        self.terms: List[PauliTerm] = list(terms) if terms is not None else []
        self.constant = float(constant)
        #: ``(key, tables)`` of the last streamed evaluation, see
        #: :meth:`_chunk_tables`
        self._tables: Optional[tuple] = None

    # -- construction ---------------------------------------------------------

    def add(self, coefficient: float, pauli: str,
            qubits: Sequence[int]) -> "PauliSum":
        """Append a term (validates the string eagerly)."""
        term = PauliTerm(float(coefficient), pauli.upper(), tuple(qubits))
        term.parsed()  # raises on malformed input
        self.terms.append(term)
        return self

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    @property
    def num_qubits(self) -> int:
        return max((t.parsed().num_qubits for t in self.terms), default=0)

    def simplified(self) -> "PauliSum":
        """Merge duplicate (pauli, qubits) terms; drop near-zero ones."""
        acc: Dict[Tuple[str, Tuple[int, ...]], float] = {}
        for t in self.terms:
            # canonical key: sort by qubit
            pairs = sorted(zip(t.qubits, t.pauli))
            key = ("".join(p for _, p in pairs), tuple(q for q, _ in pairs))
            acc[key] = acc.get(key, 0.0) + t.coefficient
        out = PauliSum(constant=self.constant)
        for (pauli, qubits), coef in sorted(acc.items()):
            if abs(coef) > 1e-15:
                out.add(coef, pauli, qubits)
        return out

    # -- evaluation ------------------------------------------------------------

    def expectation_dense(self, sv: StateVector) -> float:
        """Term-by-term evaluation against a dense state."""
        total = self.constant
        for t in self.terms:
            total += t.coefficient * sv.expectation_pauli(t.pauli, list(t.qubits))
        return float(total)

    def expectation_chunked(self, result) -> float:
        """One-pass streamed evaluation against a MemQSimResult.

        ``<psi|P|psi> = sum_i conj(psi_i) phase_P(i) psi_{i ^ x}``, so the
        terms that share an X-mask pair up the same amplitudes: their
        phases are summed, coefficient-weighted, into one vector and the
        whole group costs one reduction per chunk (all Z-only terms are one
        ``|psi_i|^2`` against one sign vector; a group of bare X strings
        has no phase at all).

        The global part ``g`` of a group's X-mask decides the chunk partner
        ``k ^ g``. The group is Hermitian, so chunk ``k ^ g``'s share of the
        sum is the complex conjugate of chunk ``k``'s: the pair is summed
        once, as twice the real part, from its lower chunk. Every partner
        is therefore read once per pair, and at most ``1 +`` (number of
        distinct global X parts) chunks are held at a time.
        """
        lay = result.store.layout
        num_qubits, groups = self._chunk_tables(lay)
        if num_qubits > result.num_qubits:
            raise ValueError("Hamiltonian touches qubits outside the state")
        total = self.constant
        for k in range(lay.num_chunks):
            total += _chunk_share(result.store, k, groups)
        return float(total)

    def _chunk_tables(self, lay) -> Tuple[int, tuple]:
        """``(num_qubits, groups)`` for streaming over the layout ``lay``.

        Per X-mask a group ``(global bits, their top bit, in-chunk gather
        or None, summed coefficient of the phaseless terms, and for the
        others their coefficients per chunk (chunks x terms) and phases per
        offset (terms x chunk_size), or None)``. They depend on the term
        list and the layout only, so they are built once for both and kept
        until either changes.
        """
        key = (tuple(self.terms), lay.chunk_qubits, lay.num_chunks)
        if self._tables is not None and self._tables[0] == key:
            return self._tables[1]
        cq, cs = lay.chunk_qubits, lay.chunk_size
        by_x: Dict[int, List[Tuple[float, PauliString]]] = {}
        num_qubits = 0
        for t in self.terms:
            ps = t.parsed()
            num_qubits = max(num_qubits, ps.num_qubits)
            by_x.setdefault(ps.x_mask, []).append((t.coefficient, ps))
        offs = np.arange(cs, dtype=np.uint64)
        bases = np.arange(lay.num_chunks, dtype=np.uint64) << np.uint64(cq)
        groups = []
        for x, members in by_x.items():
            plain = 0.0
            per_chunk, per_offset = [], []
            for coef, ps in members:
                if not ps.z_mask and not ps.y_qubits:
                    plain += coef
                    continue
                # Z and Y signs are parities, which split over the offset
                # and chunk-id bits: phase(base | offset) =
                # phase(offset) * phase(base) / phase(0), all units.
                head = pauli_phase(ps, bases)
                per_chunk.append(coef * head * head[0].conjugate())
                per_offset.append(pauli_phase(ps, offs))
            local_x = x & (cs - 1)
            gather = (offs ^ np.uint64(local_x)) if local_x else None
            coefs = phases = None
            if per_chunk:
                coefs, phases = np.array(per_chunk).T, np.array(per_offset)
                if not x:  # Z-only: the phases are real signs
                    coefs, phases = coefs.real, phases.real
            gbits = x >> cq
            top = 1 << (gbits.bit_length() - 1) if gbits else 0
            groups.append((gbits, top, gather, plain, coefs, phases))
        tables = (num_qubits, tuple(groups))
        self._tables = (key, tables)
        return tables

    def expectation(self, state) -> float:
        """Dispatch on the state type (StateVector or MemQSimResult)."""
        if isinstance(state, StateVector):
            return self.expectation_dense(state)
        if hasattr(state, "store"):
            return self.expectation_chunked(state)
        raise TypeError(f"cannot evaluate against {type(state).__name__}")

    # -- dense matrix (tests, small n) -------------------------------------------

    def to_matrix(self, num_qubits: Optional[int] = None) -> np.ndarray:
        """Dense operator matrix — exponential, tests only."""
        n = num_qubits if num_qubits is not None else self.num_qubits
        if n > 12:
            raise ValueError("to_matrix is for small systems only")
        dim = 1 << n
        single = {
            "I": np.eye(2, dtype=complex),
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "Z": np.diag([1.0, -1.0]).astype(complex),
        }
        out = self.constant * np.eye(dim, dtype=complex)
        for t in self.terms:
            by_qubit = {q: single[p] for p, q in zip(t.pauli, t.qubits)}
            op = np.eye(1, dtype=complex)
            for q in reversed(range(n)):
                op = np.kron(op, by_qubit.get(q, single["I"]))
            out += t.coefficient * op
        return out

    def __str__(self) -> str:
        parts = [str(t) for t in self.terms[:12]]
        if len(self.terms) > 12:
            parts.append(f"... (+{len(self.terms) - 12} terms)")
        if self.constant:
            parts.insert(0, f"{self.constant:+g}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"<PauliSum {len(self.terms)} terms on {self.num_qubits} qubits>"


def _chunk_share(store, k: int, groups: tuple) -> float:
    """Chunk ``k``'s share of a streamed expectation: every group against
    its partner of ``k``, except the pairs whose lower chunk is the
    partner (that chunk summed them, twice their real part)."""
    bra = store.load(k).astype(np.complex128, copy=False)
    loaded: Dict[int, np.ndarray] = {0: bra}
    total = 0.0
    for gbits, top, gather, plain, coefs, phases in groups:
        if k & top:
            continue
        ket = loaded.get(gbits)
        if ket is None:
            ket = loaded[gbits] = store.load(k ^ gbits).astype(
                np.complex128, copy=False)
        if gather is not None:
            ket = ket[gather]
        if phases is None:
            share = plain * float(np.vdot(bra, ket).real)
        else:
            weight = coefs[k] @ phases + plain
            if ket is bra:
                share = float(np.dot(bra.real ** 2 + bra.imag ** 2, weight))
            else:
                share = float(np.vdot(bra, weight * ket).real)
        total += 2.0 * share if gbits else share
    return total


def maxcut_hamiltonian(graph) -> PauliSum:
    """MaxCut cost: C = sum_edges (1 - Z_u Z_v)/2 (to be *maximized*)."""
    h = PauliSum()
    m = graph.number_of_edges()
    h.constant = m / 2.0
    for (u, v) in graph.edges():
        h.add(-0.5, "ZZ", (u, v))
    return h


def ising_hamiltonian(num_qubits: int, j: float = 1.0, g: float = 0.5,
                      periodic: bool = False) -> PauliSum:
    """Transverse-field Ising chain: -J sum Z_i Z_{i+1} - g sum X_i."""
    h = PauliSum()
    last = num_qubits if periodic else num_qubits - 1
    for i in range(last):
        h.add(-j, "ZZ", (i, (i + 1) % num_qubits))
    for i in range(num_qubits):
        h.add(-g, "X", (i,))
    return h


def heisenberg_hamiltonian(num_qubits: int, jx: float = 1.0, jy: float = 1.0,
                           jz: float = 1.0) -> PauliSum:
    """Heisenberg XXZ chain: sum_i Jx XX + Jy YY + Jz ZZ on neighbours."""
    h = PauliSum()
    for i in range(num_qubits - 1):
        h.add(jx, "XX", (i, i + 1))
        h.add(jy, "YY", (i, i + 1))
        h.add(jz, "ZZ", (i, i + 1))
    return h
