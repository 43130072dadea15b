"""Device memory arena: a capacity-enforced allocator over one backing array.

All "device-resident" data lives inside a single preallocated complex128
array, mirroring how a CUDA allocator carves up GPU global memory. The arena
implements first-fit allocation with free-list coalescing; exceeding the
capacity raises :class:`DeviceOutOfMemory` — that pressure is what drives
the chunked schedule (a real GPU gives cudaErrorMemoryAllocation).

Two additions support the multi-tenant service plane (``repro.serve``):

* all mutating operations and aggregate queries are **thread-safe** (one
  internal lock), so concurrent jobs can share a single arena;
* a **lease ledger** (:meth:`DeviceArena.lease` / :class:`ArenaLease`)
  tracks *reserved* capacity separately from live allocations. Admission
  control grants each job a lease covering its worst-case working set
  before the job starts; because every job's actual allocations stay
  within its lease, the sum of grants never exceeding the capacity proves
  concurrent jobs can never hit :class:`DeviceOutOfMemory` mid-run.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..memory.accounting import MemoryTracker
from .spec import DeviceSpec

__all__ = ["DeviceArena", "DeviceOutOfMemory", "DeviceBuffer", "ArenaLease"]

CATEGORY = "device_arena"


class DeviceOutOfMemory(MemoryError):
    """Requested allocation exceeds remaining device memory."""


@dataclass
class DeviceBuffer:
    """A live allocation: a view into the arena's backing store.

    ``size`` counts *logical* amplitudes in the buffer's dtype;
    ``back_size`` counts the complex128 backing elements the allocation
    occupies (equal for c128 buffers, half-as-many backing elements per
    amplitude for complex64 views).
    """

    offset: int  # in backing elements
    size: int  # in logical amplitudes
    view: np.ndarray
    back_size: int = 0  # in backing elements (0 = same as size)

    def __post_init__(self):
        if not self.back_size:
            self.back_size = self.size

    @property
    def nbytes(self) -> int:
        return self.view.nbytes

    def head(self, size: int) -> "DeviceBuffer":
        """The first ``size`` amplitudes as a buffer of their own: a view,
        not an allocation (the arena frees only the buffer it handed out;
        freeing a head raises)."""
        if not 1 <= size <= self.size:
            raise ValueError(f"head of {size} amplitudes in a buffer of "
                             f"{self.size}")
        return DeviceBuffer(self.offset, size, self.view[:size],
                            -(-size * self.view.itemsize // 16))


@dataclass
class ArenaLease:
    """A capacity reservation (amplitudes), not an allocation.

    Held by one tenant/job for its lifetime; release via
    :meth:`DeviceArena.release_lease` (idempotent through ``released``).
    """

    size: int
    name: str = ""
    released: bool = field(default=False, compare=False)

    @property
    def nbytes(self) -> int:
        return self.size * 16


class DeviceArena:
    """First-fit allocator over a fixed complex128 backing array."""

    def __init__(self, spec: DeviceSpec, tracker: Optional[MemoryTracker] = None):
        self.spec = spec
        self.capacity = spec.memory_bytes // 16  # amplitudes
        if self.capacity < 1:
            raise ValueError("device memory too small for a single amplitude")
        self._backing = np.zeros(self.capacity, dtype=np.complex128)
        # Free list of (offset, size), sorted by offset, coalesced.
        self._free: List[Tuple[int, int]] = [(0, self.capacity)]
        self._live: Dict[int, DeviceBuffer] = {}
        self._leases: List[ArenaLease] = []
        self._leased = 0  # amplitudes reserved by live leases
        self._lock = threading.RLock()
        self.tracker = tracker if tracker is not None else MemoryTracker()
        self.peak_amplitudes = 0

    # -- allocation -------------------------------------------------------------

    def alloc(self, size: int, dtype=None) -> DeviceBuffer:
        """Allocate ``size`` amplitudes of ``dtype`` (default complex128).

        The backing stays complex128 (so a shared multi-tenant arena
        serves jobs of any precision); non-c128 requests round up to
        whole backing elements and hand out a reinterpreting view.
        Raises :class:`DeviceOutOfMemory`.
        """
        if size < 1:
            raise ValueError("size must be >= 1")
        dt = np.dtype(np.complex128) if dtype is None else np.dtype(dtype)
        nbytes = size * dt.itemsize
        back = -(-nbytes // 16)  # backing elements, rounded up
        with self._lock:
            for i, (off, sz) in enumerate(self._free):
                if sz >= back:
                    if sz == back:
                        self._free.pop(i)
                    else:
                        self._free[i] = (off + back, sz - back)
                    view = self._backing[off:off + back]
                    if dt != self._backing.dtype:
                        view = view.view(dt)[:size]
                    buf = DeviceBuffer(off, size, view, back_size=back)
                    self._live[off] = buf
                    self.tracker.alloc(CATEGORY, buf.nbytes)
                    self.peak_amplitudes = max(self.peak_amplitudes,
                                               self._used_locked())
                    return buf
            raise DeviceOutOfMemory(
                f"device OOM: need {back * 16:,} bytes, "
                f"{self._free_locked() * 16:,} free of "
                f"{self.capacity * 16:,}"
            )

    def free(self, buf: DeviceBuffer) -> None:
        """Return a buffer to the arena (coalescing neighbours)."""
        with self._lock:
            if self._live.get(buf.offset) is not buf:
                raise ValueError(
                    "buffer does not belong to this arena (or double free)")
            del self._live[buf.offset]
            self.tracker.free(CATEGORY, buf.nbytes)
            self._insert_free(buf.offset, buf.back_size)

    def _insert_free(self, off: int, size: int) -> None:
        # Insert keeping order, then coalesce with neighbours.
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < off:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, (off, size))
        # Coalesce right then left.
        if lo + 1 < len(self._free):
            o2, s2 = self._free[lo + 1]
            if off + size == o2:
                self._free[lo] = (off, size + s2)
                self._free.pop(lo + 1)
        if lo > 0:
            o0, s0 = self._free[lo - 1]
            o1, s1 = self._free[lo]
            if o0 + s0 == o1:
                self._free[lo - 1] = (o0, s0 + s1)
                self._free.pop(lo)

    # -- lease ledger (admission control) ---------------------------------------

    def can_lease(self, size: int) -> bool:
        """Would :meth:`lease` succeed right now?"""
        with self._lock:
            return 0 < size <= self.capacity - self._leased

    def lease(self, size: int, name: str = "") -> ArenaLease:
        """Reserve ``size`` amplitudes of capacity for one tenant.

        Raises :class:`DeviceOutOfMemory` when the reservation would
        oversubscribe the arena — the admission-control signal.
        """
        if size < 1:
            raise ValueError("lease size must be >= 1")
        with self._lock:
            if self._leased + size > self.capacity:
                raise DeviceOutOfMemory(
                    f"lease denied: need {size * 16:,} bytes, "
                    f"{(self.capacity - self._leased) * 16:,} unleased of "
                    f"{self.capacity * 16:,}"
                )
            lease = ArenaLease(size, name=name)
            self._leases.append(lease)
            self._leased += size
            return lease

    def release_lease(self, lease: ArenaLease) -> None:
        """Return leased capacity (idempotent)."""
        with self._lock:
            if lease.released:
                return
            try:
                self._leases.remove(lease)
            except ValueError:
                raise ValueError("lease does not belong to this arena")
            lease.released = True
            self._leased -= lease.size

    @property
    def leased_amplitudes(self) -> int:
        with self._lock:
            return self._leased

    @property
    def leases(self) -> List[ArenaLease]:
        with self._lock:
            return list(self._leases)

    # -- queries -------------------------------------------------------------------

    def _used_locked(self) -> int:
        return sum(b.back_size for b in self._live.values())

    def _free_locked(self) -> int:
        return sum(sz for _, sz in self._free)

    @property
    def used(self) -> int:
        """Live amplitudes."""
        with self._lock:
            return self._used_locked()

    @property
    def free_amplitudes(self) -> int:
        with self._lock:
            return self._free_locked()

    @property
    def largest_free_block(self) -> int:
        with self._lock:
            return max((sz for _, sz in self._free), default=0)

    def reset(self) -> None:
        """Drop all allocations and leases (end-of-stage bulk release)."""
        with self._lock:
            for buf in list(self._live.values()):
                self.tracker.free(CATEGORY, buf.nbytes)
            self._live.clear()
            self._free = [(0, self.capacity)]
            for lease in self._leases:
                lease.released = True
            self._leases.clear()
            self._leased = 0

    def __repr__(self) -> str:
        return (
            f"<DeviceArena {self.spec.name} used={self.used * 16:,}B "
            f"leased={self.leased_amplitudes * 16:,}B "
            f"free={self.free_amplitudes * 16:,}B>"
        )
