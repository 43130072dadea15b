"""The compressed host-side chunk store (paper Fig. 2, offline stage).

Every chunk of the state vector lives in host memory *only* in compressed
form. ``load`` decompresses a chunk into a caller-supplied (or fresh)
buffer; ``store`` recompresses a buffer back into the blob slot. The store
never holds more than the blobs plus whatever buffers the caller manages —
the accounting reflects exactly that.

Zero chunks are the common case early in a simulation (the initial state is
one nonzero amplitude), so all-zero chunks share one interned blob. Which
chunks hold it is fixed by the plan's support set, not by the data, so a
load of it fills the slot with zeros: no codec call, no timeline row, no
codec traffic (the audit predicts exactly that,
:func:`repro.pipeline.sweep.predict_sweep`).

With a **codec lane** attached (:meth:`CompressedChunkStore.attach_lane`)
``store`` only submits the compress job, ``will_need`` starts decompress
jobs ahead and ``load`` collects them. Two rules keep that invisible: a
chunk's blob is read only after its pending write has settled, and a write
drops a stale prefetch of that chunk.

A codec call is a pipeline hop this layer runs, so this layer times it —
one ``perf_counter`` pair here, or the lane thread's own — and books it
once, the same way for both, as a row of the timeline a run named in
:meth:`CompressedChunkStore.report_codec_to`. That row is the hop's only
record: how many loads and stores a run made is ``timeline.count``; with
telemetry on, the traffic ledger's ``codec`` edge holds the bytes and
calls over the store's whole lifetime.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import List, Optional

import numpy as np

from ..compression.interface import Compressor
from ..device.timeline import Stage
from ..telemetry import NULL_TELEMETRY, get_logger
from .accounting import MemoryTracker
from .layout import ChunkLayout

log = get_logger(__name__)

__all__ = ["CompressedChunkStore"]

CATEGORY = "chunk_store"


class CompressedChunkStore:
    """Host store keeping every state-vector chunk independently compressed."""

    def __init__(
        self,
        layout: ChunkLayout,
        compressor: Compressor,
        tracker: Optional[MemoryTracker] = None,
        telemetry=None,
        dtype=None,
    ):
        self.layout = layout
        self.compressor = compressor
        self.tracker = tracker if tracker is not None else MemoryTracker()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._blobs: List[Optional[bytes]] = [None] * layout.num_chunks
        self._zero_blob: Optional[bytes] = None
        self._zero_refs = 0
        #: the plan's access schedule (:meth:`MemoryHierarchy.attach_plan`)
        self.schedule = None
        #: the codec lane, see :meth:`attach_lane`
        self.lane = None
        # see :meth:`report_codec_to`
        self._timeline = None
        #: group of the pass now streaming (:meth:`will_need`): which pass
        #: a booked codec call — or a write a lane settles later — is of
        self._group = -1
        # chunk -> (compress job, ledger pass, group): submitted, blob not
        # installed yet; insertion order = submission order
        self._pending: dict = {}
        # chunk -> (decompress job, the blob it decodes): started ahead
        # of load()
        self._prefetched: dict = {}
        self._dtype = np.dtype(dtype) if dtype is not None \
            else np.dtype(np.complex64 if layout.itemsize == 8
                          else np.complex128)
        if self._dtype.itemsize != layout.itemsize:
            raise ValueError(
                f"store dtype {self._dtype} ({self._dtype.itemsize}B) does "
                f"not match layout itemsize {layout.itemsize}")

    @property
    def dtype(self) -> np.dtype:
        """Amplitude dtype chunks decompress to.

        Layers above the store (the decompressed-chunk cache, staging
        helpers) derive their element type from
        here instead of assuming ``complex128``. Defaults to whatever the
        layout's itemsize implies (``complex64`` at 8 bytes/amplitude).
        """
        return self._dtype

    # -- initialization -------------------------------------------------------

    def init_zero_state(self) -> None:
        """Install |0...0>: chunk 0 has amplitude 1 at offset 0, rest zero."""
        zeros = np.zeros(self.layout.chunk_size, dtype=self.dtype)
        self._zero_blob = self._compress(zeros)
        first = zeros.copy()
        first[0] = 1.0
        first_blob = self._compress(first)
        for k in range(self.layout.num_chunks):
            self._set_blob(k, self._zero_blob if k else first_blob, shared=k > 0)

    def init_from_statevector(self, data: np.ndarray) -> None:
        """Chunk and compress an existing dense vector (tests/examples).

        Chunks that are bytewise all-zero intern the zero blob, so a basis
        or sparse state leaves its true support behind (a ``-0.0`` has a
        bit set and is compressed like any other value)."""
        if data.shape != (self.layout.num_amplitudes,):
            raise ValueError("state vector size mismatch")
        cs = self.layout.chunk_size
        for k in range(self.layout.num_chunks):
            piece = np.ascontiguousarray(data[k * cs:(k + 1) * cs],
                                         dtype=self.dtype)
            if piece.view(np.uint8).any():
                self._set_blob(k, self._compress(piece))
            else:
                self.zero_chunk(k)

    def init_product_state(self, factors) -> None:
        """Install a product state without ever densifying.

        ``factors[q]`` is the normalized 2-vector of qubit ``q``. The local
        part (a kron over the chunk qubits) is built once and scaled per
        chunk by the product of the global-qubit components the chunk id
        selects; chunks whose global factor vanishes intern the zero blob.
        Memory: O(chunk_size), independent of the qubit count.
        """
        n = self.layout.num_qubits
        if len(factors) != n:
            raise ValueError(f"need {n} single-qubit factors")
        facs = []
        for q, f in enumerate(factors):
            f = np.asarray(f, dtype=np.complex128)
            if f.shape != (2,):
                raise ValueError(f"factor {q} is not a 2-vector")
            if not np.isclose(np.linalg.norm(f), 1.0, atol=1e-9):
                raise ValueError(f"factor {q} is not normalized")
            facs.append(f)
        c = self.layout.chunk_qubits
        local = np.ones(1, dtype=self.dtype)
        # kron builds indices with the *first* operand as the most
        # significant axis, so fold from the highest local qubit down.
        for q in reversed(range(c)):
            local = np.kron(local, facs[q])
        for k in range(self.layout.num_chunks):
            scale = 1.0 + 0.0j
            for q in range(c, n):
                scale *= facs[q][(k >> (q - c)) & 1]
            if scale == 0.0:
                self.zero_chunk(k)
                continue
            self._set_blob(k, self._compress(local * scale))

    # -- chunk I/O ---------------------------------------------------------------

    def load(self, chunk: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Decompress chunk ``chunk`` into ``out`` (or a new buffer).

        The codec decodes straight into ``out`` when it fits (see
        :meth:`Compressor.decompress`); a lane's prefetched array, or an
        ``out`` of another dtype, is copied in. A chunk holding the
        interned zero blob is filled with zeros instead: nothing is
        decoded, timed or booked."""
        entry = self._prefetched.pop(chunk, None) if self._prefetched else None
        if entry is not None:
            # Started ahead on the lane: it was timed there.
            res = self.lane.collect(entry[0])
            arr, blob_nbytes = res.array, len(entry[1])
            t0, dt, worker = res.start, res.seconds, res.worker
        else:
            blob = self.get_blob(chunk)
            if blob is None:
                raise KeyError(f"chunk {chunk} not initialized")
            if blob is self._zero_blob:
                if out is None:
                    return np.zeros(self.layout.chunk_size, dtype=self._dtype)
                out[: self.layout.chunk_size] = 0
                return out
            t0 = time.perf_counter()
            arr = self.compressor.decompress(blob, out=out)
            dt, worker, blob_nbytes = time.perf_counter() - t0, 0, len(blob)
        tel = self.telemetry
        if tel.enabled:
            tel.traffic.record("codec", "compressed_in", blob_nbytes,
                               worker=worker)
            tel.traffic.record("codec", "raw_out", arr.nbytes, worker=worker)
        if self._timeline is not None:
            self._timeline.record(Stage.DECOMPRESS, t0, dt, self._group,
                                  chunk, self.layout.chunk_nbytes, worker)
        if arr.shape[0] != self.layout.chunk_size:
            raise ValueError(
                f"chunk {chunk} decompressed to {arr.shape[0]} amplitudes, "
                f"expected {self.layout.chunk_size}"
            )
        if out is not None and arr is not out:
            out[: arr.shape[0]] = arr
            return out
        return arr

    def store(self, chunk: int, data: np.ndarray) -> None:
        """Compress ``data`` into chunk ``chunk``'s slot."""
        if data.shape[0] != self.layout.chunk_size:
            raise ValueError("buffer size mismatch")
        if self.lane is None:
            self._set_blob(chunk, self._compress(data, chunk))
            return
        self._before_write(chunk)
        if data.dtype != self._dtype:
            data = data.astype(self._dtype)
        job = self.lane.submit_compress(chunk, data)  # copies ``data``
        tel = self.telemetry
        self._pending[chunk] = (
            job, tel.traffic.pass_context() if tel.enabled else None,
            self._group)
        self._settle_finished()

    def _compress(self, data: np.ndarray, chunk: int = -1) -> bytes:
        if data.dtype != self._dtype:
            data = data.astype(self._dtype)
        t0 = time.perf_counter()
        blob = self.compressor.compress(data)
        self._stored(blob, data.nbytes, t0, time.perf_counter() - t0, 0,
                     self._group, chunk)
        return blob

    def _stored(self, blob: bytes, raw_nbytes: int, start: float,
                seconds: float, worker: int, group: int, chunk: int) -> None:
        """Book one compression, the same way wherever the codec ran
        (``start`` / ``seconds`` measured there, ``worker`` its lane, 0 =
        here; ``group`` the pass that wrote ``chunk``)."""
        if self._timeline is not None:
            self._timeline.record(Stage.COMPRESS, start, seconds, group,
                                  chunk, raw_nbytes, worker)
        tel = self.telemetry
        if tel.enabled:
            tel.traffic.record("codec", "raw_in", raw_nbytes, worker=worker)
            tel.traffic.record("codec", "compressed_out", len(blob),
                               worker=worker)
            self._note_stage(tel, blob)

    # -- the codec lane --------------------------------------------------------

    def report_codec_to(self, timeline=None) -> None:
        """Book every codec call from now on as a row of ``timeline`` (no
        row, by default and again after a run): start and seconds measured
        where the codec ran, the group pass that issued the call, the chunk,
        its raw bytes and the lane — for a load as it returns and for a
        write as its blob lands (at once inline, when the job settles on a
        lane)."""
        self._timeline = timeline

    def attach_lane(self, pool) -> None:
        """Run the codec on ``pool``'s lanes (a caller-owned
        :class:`~repro.parallel.CodecWorkerPool`, never closed here)."""
        self.lane = pool

    def detach_lane(self) -> None:
        """Settle every pending write, drop unused prefetches, forget the
        pool. Safe without a lane and on any exit path: a job that raised
        does not stop the others from settling (see :meth:`_quiesce`)."""
        try:
            self._quiesce()
        finally:
            self.lane = None

    def will_need(self, chunks, group: int = -1, resident=()) -> None:
        """Advisory: ``chunks`` are the reads of group pass ``group``, now
        starting.

        A lane starts their decompress jobs here, side by side, then those
        of the **next** pass's reads (per the schedule; never across a
        permutation barrier), which overlap this pass's kernel. A chunk in
        both is started once: this pass's load takes the job before its
        write could drop it. ``resident`` chunks — decompressed in a cache
        in front of this store — need no job.
        """
        self._group = group
        if self.lane is None:
            return
        self._settle_finished()
        for chunk in chunks:
            self._prefetch(chunk)
        if self.schedule is not None:
            for chunk in self.schedule.reads_after():
                if chunk not in resident:
                    self._prefetch(chunk)

    def flush(self) -> None:
        """Settle every pending write (no-op without a lane)."""
        while self._pending:
            self._settle(next(iter(self._pending)))

    def _prefetch(self, chunk: int) -> None:
        if chunk in self._prefetched:
            return
        blob = self.get_blob(chunk)
        if blob is not None and blob is not self._zero_blob:
            self._prefetched[chunk] = (
                self.lane.submit_decompress(chunk, blob), blob)

    def _settle(self, chunk: int) -> None:
        """Install chunk's pending blob, booked to the pass that wrote it."""
        job, ledger_pass, group = self._pending.pop(chunk)
        res = self.lane.collect(job)
        with (self.telemetry.traffic.attributed(*ledger_pass)
              if ledger_pass is not None else nullcontext()):
            self._stored(res.blob, self.layout.chunk_nbytes, res.start,
                         res.seconds, res.worker, group, chunk)
            self._set_blob(chunk, res.blob)

    def _settle_finished(self) -> None:
        """Install finished writes, oldest first, without blocking: blobs
        land in submission order whatever order lanes finish in."""
        while self._pending:
            chunk = next(iter(self._pending))
            if not self._pending[chunk][0].done():
                return
            self._settle(chunk)

    def _before_write(self, chunk: int) -> None:
        """Before a new value for ``chunk``: an older pending write lands
        (and is counted), a prefetch of the old value is discarded."""
        if chunk in self._pending:
            self._settle(chunk)
        entry = self._prefetched.pop(chunk, None)
        if entry is not None:
            self.lane.collect(entry[0])

    def _quiesce(self) -> None:
        """Nothing in flight: what relabeling and detaching require.

        Every job is settled or dropped even when one raises (a write that
        failed leaves its chunk's previous blob); the first error is
        re-raised once nothing is left."""
        error = None
        while self._pending or self._prefetched:
            try:
                if self._pending:
                    self._settle(next(iter(self._pending)))
                else:
                    self.lane.collect(self._prefetched.popitem()[1][0])
            except Exception as exc:
                error = error or exc
        if error is not None:
            raise error

    @staticmethod
    def _note_stage(tel, blob: bytes) -> None:
        """Count which stage the codec picked, sniffed per blob: szlike's
        entropy stage (``codec.entropy_choice.*``) or a lossless codec's
        frame (``codec.lossless_frame.{raw,deflate,uniform}``).

        Works on the header alone, so blobs a lane produced are counted
        when they land. Other codecs contribute nothing.
        """
        # lazy: avoids import cycle
        from ..compression.lossless import blob_frame
        from ..compression.szlike import blob_entropy
        choice = blob_entropy(blob)
        if choice is not None:
            tel.metrics.counter(f"codec.entropy_choice.{choice}").inc()
            return
        frame = blob_frame(blob)
        if frame is not None:
            tel.metrics.counter(f"codec.lossless_frame.{frame}").inc()

    def _set_blob(self, chunk: int, blob: bytes, shared: bool = False) -> None:
        old = self._blobs[chunk]
        if old is not None:
            if self._is_shared(chunk):
                self._zero_refs -= 1
                if self._zero_refs == 0 and self._zero_blob is not None:
                    self.tracker.free(CATEGORY, len(self._zero_blob))
            else:
                self.tracker.free(CATEGORY, len(old))
        self._blobs[chunk] = blob
        if shared:
            self._zero_refs += 1
            if self._zero_refs == 1:
                self.tracker.alloc(CATEGORY, len(blob))
        else:
            self.tracker.alloc(CATEGORY, len(blob))

    def _is_shared(self, chunk: int) -> bool:
        return self._blobs[chunk] is not None and self._blobs[chunk] is self._zero_blob

    def zero_chunk(self, chunk: int) -> None:
        """Set a chunk to all-zero amplitudes via the interned zero blob.

        Used by measurement collapse on global qubits: discarding a branch
        zeroes whole chunks without any codec work.
        """
        if self._zero_blob is None:
            zeros = np.zeros(self.layout.chunk_size, dtype=self.dtype)
            self._zero_blob = self.compressor.compress(zeros)
        if self.lane is not None:
            self._before_write(chunk)
        self._set_blob(chunk, self._zero_blob, shared=True)

    def permute(self, perm) -> None:
        """Relabel chunks: ``new_blob[d] = old_blob[perm[d]]``.

        Executes global-qubit X/SWAP gates on *compressed* data — no codec
        or transfer traffic. ``perm`` must be a permutation of chunk ids.
        """
        if len(perm) != self.layout.num_chunks:
            raise ValueError("permutation length mismatch")
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("not a permutation of chunk ids")
        if self.lane is not None:
            self._quiesce()  # jobs in flight are keyed by the old ids
        self._relabel(perm)

    def _relabel(self, perm) -> None:
        old = list(self._blobs)
        for dst, src in enumerate(perm):
            self._blobs[dst] = old[src]

    # -- blob access (persistence & subclasses) ----------------------------------

    def get_blob(self, chunk: int) -> Optional[bytes]:
        """Raw compressed blob of a chunk (None if uninitialized)."""
        if chunk in self._pending:
            self._settle(chunk)
        return self._read_blob(chunk)

    def _read_blob(self, chunk: int) -> Optional[bytes]:
        return self._blobs[chunk]

    def is_zero_chunk(self, chunk: int) -> bool:
        """Whether the chunk references the shared zero blob."""
        if chunk in self._pending:
            self._settle(chunk)
        return self._is_shared(chunk)

    def zero_blob_bytes(self) -> Optional[bytes]:
        """The interned all-zero blob, if one exists."""
        return self._zero_blob

    # -- footprint queries -----------------------------------------------------------

    def compressed_nbytes(self) -> int:
        """Total unique blob bytes currently held."""
        self.flush()
        seen_zero = False
        total = 0
        for blob in self._blobs:
            if blob is None:
                continue
            if blob is self._zero_blob:
                if not seen_zero:
                    total += len(blob)
                    seen_zero = True
                continue
            total += len(blob)
        return total

    def dense_nbytes(self) -> int:
        return self.layout.num_amplitudes * self.dtype.itemsize

    def compression_ratio(self) -> float:
        c = self.compressed_nbytes()
        return float("inf") if c == 0 else self.dense_nbytes() / c

    def blob_sizes(self) -> List[int]:
        self.flush()
        return [0 if b is None else len(b) for b in self._blobs]

    # -- whole-vector reconstruction (tests / small n) ----------------------------------

    def to_statevector(self) -> np.ndarray:
        out = np.empty(self.layout.num_amplitudes, dtype=self.dtype)
        cs = self.layout.chunk_size
        for k in range(self.layout.num_chunks):
            out[k * cs:(k + 1) * cs] = self.load(k)
        return out

    def __repr__(self) -> str:
        return (
            f"<CompressedChunkStore {self.layout!r} codec={self.compressor.name} "
            f"bytes={self.compressed_nbytes():,} ratio={self.compression_ratio():.1f}x>"
        )
