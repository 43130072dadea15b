"""Reusable host staging buffers (the paper's "CPU buffers").

The online stage decompresses chunks into a *fixed* set of staging buffers
rather than allocating per chunk — this is what bounds the uncompressed host
footprint to ``num_buffers * buffer_size`` regardless of qubit count. The
pool hands out complex arrays and takes them back; a buffer is allocated
(and booked) the first time the pool would otherwise come up empty, so the
tracker holds what a run actually staged through, and acquiring beyond
``num_buffers`` raises, which surfaces scheduling bugs instead of silently
growing memory.

:class:`ScratchPool` is the codec-side sibling: a size-classed recycling
bin for the short-lived scratch arrays the SZ-like pipeline would
otherwise allocate per chunk (its plane buffers). Where
:class:`BufferPool` enforces a fixed budget and strict accounting, the
scratch pool only *recycles* — misses fall through to the allocator, and
retention is capped so it can never hoard memory.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Set

import numpy as np

from ..telemetry import NULL_TELEMETRY, get_logger
from .accounting import MemoryTracker

__all__ = ["BufferPool", "ScratchPool", "scratch_pool"]

CATEGORY = "host_buffers"

log = get_logger(__name__)


class BufferPool:
    """Bounded pool of equally-sized complex staging buffers."""

    def __init__(
        self,
        num_buffers: int,
        buffer_size: int,
        tracker: Optional[MemoryTracker] = None,
        telemetry=None,
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
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._free: List[np.ndarray] = []
        self._out: Set[int] = set()
        self._allocated = 0
        self.peak_in_use = 0

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
        tel = self.telemetry
        t0 = time.perf_counter() if tel.enabled else 0.0
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
        if tel.enabled:
            # On this synchronous pool a free buffer is always ready, so
            # "wait" is the hand-out latency; a blocking pool would observe
            # genuine queueing here.
            tel.metrics.counter("pool.acquire.count").inc()
            tel.metrics.histogram("pool.acquire.wait.seconds").observe(
                time.perf_counter() - t0)
            tel.metrics.gauge("pool.in_use").set(self.in_use)
        return buf

    def release(self, buf: np.ndarray) -> None:
        """Return a buffer obtained from :meth:`acquire`."""
        if id(buf) not in self._out:
            raise ValueError("buffer does not belong to this pool")
        self._out.remove(id(buf))
        self._free.append(buf)
        if self.telemetry.enabled:
            self.telemetry.metrics.gauge("pool.in_use").set(self.in_use)

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


class ScratchPool:
    """Thread-safe freelist of reusable scratch arrays, size-classed.

    ``borrow(n, dtype)`` yields a 1-D array of ``n`` elements backed by a
    power-of-two byte buffer; on exit the buffer returns to its size-class
    freelist for the next borrower. Contents are never cleared — borrowers
    overwrite. Buffers whose return would push total retained bytes past
    ``max_bytes`` are dropped instead (the cap bounds the pool, not the
    workload). One freelist covers all dtypes: buffers are stored as raw
    uint8, each with the typed views it has been borrowed as, so an int32
    jump table and a float64 plane buffer of similar size recycle the same
    memory, and a repeated borrow is a slice of a view made once.
    """

    def __init__(self, max_bytes: int = 1 << 26):
        self.max_bytes = int(max_bytes)
        # capacity -> [[raw uint8 buffer, {dtype: its whole typed view}]]
        self._free: Dict[int, List[list]] = {}
        # itemsize per ``dtype`` argument as borrowers pass it
        # (``np.float64``, a ``np.dtype``): no ``np.dtype`` built per borrow
        self._itemsize: Dict[object, int] = {}
        self._lock = threading.Lock()
        self.retained_bytes = 0
        self.hits = 0
        self.misses = 0
        self.drops = 0

    @staticmethod
    def _capacity(nbytes: int) -> int:
        return 1 << max(8, (max(nbytes, 1) - 1).bit_length())

    def borrow(self, n: int, dtype) -> "_Borrow":
        """Context manager yielding a reusable ``(n,)`` array of ``dtype``."""
        return _Borrow(self, int(n), dtype)

    def clear(self) -> None:
        """Drop every retained buffer (outstanding borrows are unaffected)."""
        with self._lock:
            self._free.clear()
            self.retained_bytes = 0

    def __repr__(self) -> str:
        return (
            f"<ScratchPool retained={self.retained_bytes:,}B "
            f"hits={self.hits} misses={self.misses} drops={self.drops}>"
        )


class _Borrow:
    """One :meth:`ScratchPool.borrow`: a plain class, not a generator, so
    entering and leaving cost two method calls and one lock each. The
    buffer is taken on entry and returned on exit."""

    __slots__ = ("_pool", "_n", "_dtype", "_buf")

    def __init__(self, pool: ScratchPool, n: int, dtype) -> None:
        self._pool, self._n, self._dtype = pool, n, dtype

    def __enter__(self) -> np.ndarray:
        pool, dtype = self._pool, self._dtype
        itemsize = pool._itemsize.get(dtype)
        if itemsize is None:
            itemsize = pool._itemsize[dtype] = np.dtype(dtype).itemsize
        cap = ScratchPool._capacity(self._n * itemsize)
        buf = None
        with pool._lock:
            bucket = pool._free.get(cap)
            if bucket:
                pool.retained_bytes -= cap
                pool.hits += 1
                buf = bucket.pop()
            else:
                pool.misses += 1
        if buf is None:
            buf = [np.empty(cap, dtype=np.uint8), {}]
        self._buf = buf
        whole = buf[1].get(dtype)
        if whole is None:
            whole = buf[1][dtype] = buf[0].view(dtype)
        return whole[:self._n]

    def __exit__(self, *exc) -> None:
        pool, buf = self._pool, self._buf
        cap = buf[0].shape[0]
        with pool._lock:
            if pool.retained_bytes + cap <= pool.max_bytes:
                pool._free.setdefault(cap, []).append(buf)
                pool.retained_bytes += cap
            else:
                pool.drops += 1


_SCRATCH: Optional[ScratchPool] = None
_SCRATCH_LOCK = threading.Lock()


def scratch_pool() -> ScratchPool:
    """The process's one scratch pool, shared by every codec lane thread
    (:class:`ScratchPool` is thread-safe; the lock only guards its lazy
    creation)."""
    global _SCRATCH
    if _SCRATCH is None:
        with _SCRATCH_LOCK:
            if _SCRATCH is None:
                _SCRATCH = ScratchPool()
    return _SCRATCH
