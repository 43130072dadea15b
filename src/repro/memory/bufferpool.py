"""Reusable host staging buffers (the paper's "CPU buffers").

The online stage decompresses chunks into a *fixed* set of staging buffers
rather than allocating per chunk — this is what bounds the uncompressed host
footprint to ``num_buffers * buffer_size`` regardless of qubit count. The
pool hands out complex arrays and takes them back; a buffer is allocated
(and booked) the first time the pool would otherwise come up empty, so the
tracker holds what a run actually staged through, and acquiring beyond
``num_buffers`` raises, which surfaces scheduling bugs instead of silently
growing memory.
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from ..telemetry import get_logger
from .accounting import MemoryTracker

__all__ = ["BufferPool"]

CATEGORY = "host_buffers"

log = get_logger(__name__)


class BufferPool:
    """Bounded pool of equally-sized complex staging buffers."""

    def __init__(
        self,
        num_buffers: int,
        buffer_size: int,
        tracker: Optional[MemoryTracker] = None,
        dtype=np.complex128,
    ):
        if num_buffers < 1:
            raise ValueError("num_buffers must be >= 1")
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        self.num_buffers = int(num_buffers)
        self.buffer_size = int(buffer_size)
        self.dtype = np.dtype(dtype)
        self.tracker = tracker if tracker is not None else MemoryTracker()
        self._free: List[np.ndarray] = []
        self._out: Set[int] = set()
        self._allocated = 0
        self.peak_in_use = 0
        #: buffers handed out so far
        self.acquisitions = 0

    @property
    def total_nbytes(self) -> int:
        """Bytes of the buffers allocated so far (what the tracker holds)."""
        return self._allocated * self.buffer_size * self.dtype.itemsize

    @property
    def available(self) -> int:
        return self.num_buffers - len(self._out)

    @property
    def in_use(self) -> int:
        return len(self._out)

    def acquire(self) -> np.ndarray:
        """Take a buffer; contents are unspecified (callers overwrite)."""
        if self._free:
            buf = self._free.pop()
        elif self._allocated < self.num_buffers:
            buf = np.empty(self.buffer_size, dtype=self.dtype)
            self._allocated += 1
            self.tracker.alloc(CATEGORY, buf.nbytes)
        else:
            raise RuntimeError(
                f"buffer pool exhausted ({self.num_buffers} buffers all in use)"
            )
        self._out.add(id(buf))
        self.peak_in_use = max(self.peak_in_use, self.in_use)
        self.acquisitions += 1
        return buf

    def release(self, buf: np.ndarray) -> None:
        """Return a buffer obtained from :meth:`acquire`."""
        if id(buf) not in self._out:
            raise ValueError("buffer does not belong to this pool")
        self._out.remove(id(buf))
        self._free.append(buf)

    def close(self) -> None:
        """Release accounting (pool must be fully returned)."""
        if self._out:
            raise RuntimeError(f"{len(self._out)} buffers still in use")
        self.tracker.free(CATEGORY, self.total_nbytes)
        self._free.clear()
        self._allocated = 0

    def __repr__(self) -> str:
        return (
            f"<BufferPool {self.num_buffers}x{self.buffer_size} "
            f"({self.in_use} in use, peak {self.peak_in_use})>"
        )

