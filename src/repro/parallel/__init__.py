"""repro.parallel — real concurrent chunk execution.

The paper's online stage is *pipelined*: decompression, transfer, kernel,
and recompression of independent chunk groups overlap, with idle cores
doing the codec work (Fig. 1 step 5). This subsystem makes the codec half
of that overlap real, and a run's ``online_seconds`` measures it:

* :class:`CodecWorkerPool` — chunk compress/decompress jobs on a pool of
  codec *lane* threads over the one codec object. A run attaches it to its
  chunk store (:meth:`repro.memory.CompressedChunkStore.attach_lane`):
  group *k*'s recompression overlaps group *k+1*'s decompress and group
  *k*'s kernel while the store keeps per-chunk read-modify-write order;
* :func:`run_equivalence` — the worker-count harness enforcing
  bit-identical results (identical per-chunk blobs, lossy codecs and
  caches included).

Enable via ``MemQSimConfig(workers=N)`` / ``python -m repro run --workers N``
(``0`` = empirical auto-selection, see :func:`auto_workers`).
"""

from .equivalence import EquivalenceReport, compare_stores, run_equivalence
from .pool import CodecResult, CodecWorkerPool, auto_workers

__all__ = [
    "CodecWorkerPool",
    "CodecResult",
    "auto_workers",
    "EquivalenceReport",
    "run_equivalence",
    "compare_stores",
]
