"""Chunk layout: global amplitude index <-> (chunk, offset) arithmetic.

The state vector of ``n`` qubits is split into ``2^(n-c)`` chunks of
``2^c`` amplitudes (``c`` = ``chunk_qubits``). In little-endian indexing:

* qubits ``0..c-1`` are **local** — a gate on them touches each chunk
  independently;
* qubits ``c..n-1`` are **global** — their bits select the chunk id, so a
  gate on global qubits couples *pairs/groups of chunks* (the classic
  distributed-state-vector pairing scheme, which MEMQSim's offline stage
  applies to compressed chunks instead of MPI ranks).

:meth:`ChunkLayout.chunk_groups` enumerates the closed chunk groups for a
set of global qubits and tells the executor where each global qubit lands
inside the concatenated group buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

__all__ = ["ChunkLayout", "GroupPlacement"]


@dataclass(frozen=True)
class GroupPlacement:
    """How a set of global qubits maps into a concatenated group buffer.

    Attributes:
        group_qubits: the global qubits, sorted ascending.
        virtual_positions: position of each of those qubits within the
            concatenated buffer (parallel to ``group_qubits``): qubit
            ``group_qubits[i]`` becomes buffer qubit ``chunk_qubits + i``.
        groups: list of chunk-id tuples; each tuple, concatenated in order,
            forms one closed buffer of ``2^(c + t)`` amplitudes.
    """

    group_qubits: Tuple[int, ...]
    virtual_positions: Tuple[int, ...]
    groups: Tuple[Tuple[int, ...], ...]


class ChunkLayout:
    """Index arithmetic for a chunked state vector."""

    def __init__(self, num_qubits: int, chunk_qubits: int,
                 itemsize: int = 16):
        if chunk_qubits < 1:
            raise ValueError("chunk_qubits must be >= 1")
        if chunk_qubits > num_qubits:
            raise ValueError(
                f"chunk_qubits {chunk_qubits} exceeds num_qubits {num_qubits}"
            )
        if itemsize not in (8, 16):
            raise ValueError(
                f"itemsize must be 8 (complex64) or 16 (complex128), "
                f"got {itemsize}")
        self.num_qubits = int(num_qubits)
        self.chunk_qubits = int(chunk_qubits)
        #: bytes per amplitude at rest; every byte-exact consumer (planner
        #: fit checks, traffic prediction, span accounting) derives from
        #: this instead of assuming complex128
        self.itemsize = int(itemsize)
        # chunk_groups() by group-qubit tuple: the pass schedule and the
        # scheduler both ask, and plans revisit the same footprints
        self._placements: Dict[Tuple[int, ...], GroupPlacement] = {}

    # -- sizes -----------------------------------------------------------------

    @property
    def num_amplitudes(self) -> int:
        return 1 << self.num_qubits

    @property
    def chunk_size(self) -> int:
        """Amplitudes per chunk."""
        return 1 << self.chunk_qubits

    @property
    def chunk_nbytes(self) -> int:
        return self.chunk_size * self.itemsize

    @property
    def dtype(self):
        """The amplitude dtype this layout's itemsize implies."""
        import numpy as np

        return np.dtype(np.complex64 if self.itemsize == 8 else np.complex128)

    @property
    def num_chunks(self) -> int:
        return 1 << (self.num_qubits - self.chunk_qubits)

    @property
    def num_global_qubits(self) -> int:
        return self.num_qubits - self.chunk_qubits

    # -- classification -----------------------------------------------------------

    def is_local(self, qubit: int) -> bool:
        self._check_qubit(qubit)
        return qubit < self.chunk_qubits

    def local_qubits(self, qubits: Sequence[int]) -> Tuple[int, ...]:
        return tuple(q for q in qubits if self.is_local(q))

    def global_qubits(self, qubits: Sequence[int]) -> Tuple[int, ...]:
        return tuple(q for q in qubits if not self.is_local(q))

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit {qubit} out of range for n={self.num_qubits}")

    # -- index arithmetic -----------------------------------------------------------

    def chunk_of(self, index: int) -> int:
        return index >> self.chunk_qubits

    def offset_of(self, index: int) -> int:
        return index & (self.chunk_size - 1)

    def split(self, index: int) -> Tuple[int, int]:
        """Global amplitude index -> (chunk id, offset)."""
        if not 0 <= index < self.num_amplitudes:
            raise ValueError(f"index {index} out of range")
        return self.chunk_of(index), self.offset_of(index)

    def join(self, chunk: int, offset: int) -> int:
        """(chunk id, offset) -> global amplitude index."""
        if not 0 <= chunk < self.num_chunks:
            raise ValueError(f"chunk {chunk} out of range")
        if not 0 <= offset < self.chunk_size:
            raise ValueError(f"offset {offset} out of range")
        return (chunk << self.chunk_qubits) | offset

    def chunk_base_index(self, chunk: int) -> int:
        return chunk << self.chunk_qubits

    # -- grouping for global-qubit gates ---------------------------------------------

    def chunk_groups(self, qubits: Sequence[int]) -> GroupPlacement:
        """Plan chunk grouping for a gate acting on ``qubits``.

        Only the *global* members of ``qubits`` matter; the returned
        placement covers all chunks exactly once. For ``t`` global qubits
        each group holds ``2^t`` chunks ordered so that within the
        concatenated buffer, global qubit ``group_qubits[i]`` sits at bit
        position ``chunk_qubits + i``. A placement is a function of the
        layout's shape alone, so layouts of one shape share it (up to
        ``_SHARED_MAX_CHUNKS`` chunks; a bigger layout keeps its own).
        """
        gq = tuple(sorted(self.global_qubits(qubits)))
        placement = self._placements.get(gq)
        if placement is None:
            place = _shared_placement \
                if self.num_chunks <= _SHARED_MAX_CHUNKS else _place
            placement = self._placements[gq] = place(
                self.num_qubits, self.chunk_qubits, gq)
        return placement

    def gate_virtual_qubits(self, qubits: Sequence[int],
                            placement: GroupPlacement) -> Tuple[int, ...]:
        """Map gate qubits to their positions inside a group buffer."""
        pos = {q: placement.virtual_positions[i]
               for i, q in enumerate(placement.group_qubits)}
        out = []
        for q in qubits:
            if self.is_local(q):
                out.append(q)
            else:
                out.append(pos[q])
        return tuple(out)

    def __repr__(self) -> str:
        return (
            f"<ChunkLayout n={self.num_qubits} c={self.chunk_qubits} "
            f"chunks={self.num_chunks}x{self.chunk_size}>"
        )


#: layouts with at most this many chunks share their placements through
#: :func:`_shared_placement` (every run builds a new layout of the same
#: shape); a placement holds every chunk id, so bigger ones are not kept
_SHARED_MAX_CHUNKS = 1 << 12


def _place(num_qubits: int, c: int, gq: Tuple[int, ...]) -> GroupPlacement:
    """The :class:`GroupPlacement` of global qubits ``gq`` (sorted)."""
    num_chunks = 1 << (num_qubits - c)
    t = len(gq)
    if t == 0:
        groups = tuple((k,) for k in range(num_chunks))
        return GroupPlacement(gq, (), groups)
    # Chunk-id bit positions of the group qubits.
    bits = [q - c for q in gq]
    bitmask = 0
    for b in bits:
        bitmask |= 1 << b
    groups: List[Tuple[int, ...]] = []
    for base in range(num_chunks):
        if base & bitmask:
            continue  # not the canonical (all-zero-on-group-bits) member
        members = []
        for j in range(1 << t):
            k = base
            for i, b in enumerate(bits):
                if (j >> i) & 1:
                    k |= 1 << b
            members.append(k)
        groups.append(tuple(members))
    positions = tuple(c + i for i in range(t))
    return GroupPlacement(gq, positions, tuple(groups))


_shared_placement = lru_cache(maxsize=64)(_place)
