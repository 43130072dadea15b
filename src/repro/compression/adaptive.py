"""Per-chunk adaptive compressor selection.

The paper notes different algorithms produce state vectors with very
different structure (design challenge 3). :class:`AdaptiveCompressor` picks,
chunk by chunk, between a lossy candidate and a lossless backstop:

* if the chunk is *sparse or flat* (few distinct magnitudes — GHZ-like),
  lossless already compresses extremely well and keeps exactness;
* otherwise the SZ-like lossy path usually wins.

Selection uses a cheap structural probe, not trial compression, so the
adaptive wrapper adds O(n) overhead per chunk. Blobs are tagged with the
winning codec so decompression is self-describing.
"""

from __future__ import annotations

import struct
import threading
from typing import Optional

import numpy as np

from .interface import (
    Compressor,
    coerce_amplitudes,
    get_compressor,
    register_compressor,
)

__all__ = ["AdaptiveCompressor"]

_MAGIC = b"ADP1"
_TAG_LOSSY = 0
_TAG_LOSSLESS = 1

#: guards the per-instance choice counters, which codec lane threads share
#: (module-level so an instance stays picklable)
_COUNT_LOCK = threading.Lock()


class AdaptiveCompressor(Compressor):
    """Chooses between a lossy codec and a lossless backstop per chunk."""

    name = "adaptive"

    def __init__(
        self,
        lossy: Optional[Compressor] = None,
        lossless: Optional[Compressor] = None,
        sparsity_threshold: float = 0.05,
    ):
        """Create the selector.

        Args:
            lossy: candidate lossy codec (default: szlike, eb=1e-6 abs).
            lossless: backstop (default: zlib level 1).
            sparsity_threshold: if the fraction of amplitudes with
                non-negligible magnitude is below this, prefer lossless.
        """
        self.lossy = lossy if lossy is not None else get_compressor("szlike", error_bound=1e-6)
        self.lossless = lossless if lossless is not None else get_compressor("zlib")
        self.sparsity_threshold = float(sparsity_threshold)
        self.chunks_lossy = 0
        self.chunks_lossless = 0

    @property
    def is_lossy(self) -> bool:
        return True  # worst case; individual chunks may be exact

    @property
    def error_bound(self) -> float:
        return self.lossy.error_bound

    def _prefers_lossless(self, data: np.ndarray) -> bool:
        if data.size == 0:
            return True
        mags = np.abs(data)
        peak = float(mags.max())
        if peak == 0.0:
            return True
        occupied = float(np.count_nonzero(mags > 1e-14 * peak)) / data.size
        return occupied < self.sparsity_threshold

    def compress(self, data: np.ndarray) -> bytes:
        # The winning inner codec carries the dtype tag; the ADP1 wrapper
        # stays dtype-agnostic.
        data = coerce_amplitudes(data)
        if self._prefers_lossless(data):
            with _COUNT_LOCK:
                self.chunks_lossless += 1
            return _MAGIC + struct.pack("<B", _TAG_LOSSLESS) + self.lossless.compress(data)
        with _COUNT_LOCK:
            self.chunks_lossy += 1
        return _MAGIC + struct.pack("<B", _TAG_LOSSY) + self.lossy.compress(data)

    def decompress(self, blob: bytes) -> np.ndarray:
        if blob[:4] != _MAGIC:
            raise ValueError("not an adaptive blob")
        (tag,) = struct.unpack_from("<B", blob, 4)
        inner = blob[5:]
        if tag == _TAG_LOSSLESS:
            return self.lossless.decompress(inner)
        return self.lossy.decompress(inner)


register_compressor(
    "adaptive",
    lambda error_bound=1e-6, **kw: AdaptiveCompressor(
        lossy=get_compressor("szlike", error_bound=error_bound), **kw
    ),
)
