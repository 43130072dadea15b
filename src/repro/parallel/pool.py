"""Codec lanes: chunk (de)compression on threads (the paper's CPU codec cores).

The paper hides chunk (de)compression behind device compute by running the
codec on spare CPU cores. Here those cores are *threads*: ``zlib`` and the
numpy ufuncs the codecs are made of release the GIL on chunk-sized
buffers, so a :class:`~concurrent.futures.ThreadPoolExecutor` of
``workers`` lanes overlaps codec calls with each other and with the group
loop's kernel. Design points:

* **one codec** — every lane calls the caller's compressor object itself:
  nothing is copied across a process boundary, and a codec is a pure
  function of bytes and parameters (its shared caches are locked), so a
  blob is the blob inline execution makes; the chunk store installs
  results in submission order;
* **one clock** — a lane times its codec call with ``perf_counter`` and
  touches nothing else; the :class:`CodecResult` carries that start and
  duration and the lane's index back to the chunk store, which books the
  hop as one timeline row (a trace export puts it on the lane's own row);
* **errors** — a codec exception raised on a lane is re-raised by
  :meth:`CodecWorkerPool.collect`, with the type it has inline.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..compression.interface import Compressor, coerce_amplitudes
from ..telemetry import NULL_TELEMETRY

__all__ = ["CodecWorkerPool", "CodecResult", "auto_workers"]

def _number_lane(lane: threading.local, numbers) -> None:
    """Runs once on each lane thread as it starts: its index, 1.."""
    lane.index = next(numbers)


@dataclass
class CodecResult:
    """One finished codec job."""

    key: int
    blob: Optional[bytes] = None        # compress jobs
    array: Optional[np.ndarray] = None  # decompress jobs
    start: float = 0.0                  # perf_counter at the call, on the lane
    seconds: float = 0.0                # codec time, measured on the lane
    worker: int = 0                     # lane 1..workers (0 = inline)


class CodecWorkerPool:
    """Runs chunk codec jobs on ``workers`` threads over one codec.

    A job is the executor's :class:`~concurrent.futures.Future`; collect
    each one once, on the thread that submitted it.
    """

    def __init__(self, compressor: Compressor, workers: int = 1,
                 telemetry=None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.compressor = compressor
        self.workers = int(workers)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._lane = threading.local()
        self._exec = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-codec",
            initializer=_number_lane,
            initargs=(self._lane, itertools.count(1)))
        self._inflight = 0
        self._busy = 0.0
        self._opened = time.perf_counter()
        self._closed = False

    def close(self) -> None:
        """Join the lanes and publish their utilization."""
        if self._closed:
            return
        self._closed = True
        self._exec.shutdown(wait=True)
        if self.telemetry.enabled:
            elapsed = max(1e-9, time.perf_counter() - self._opened)
            self.telemetry.metrics.gauge("parallel.worker.utilization").set(
                min(1.0, self._busy / (self.workers * elapsed)))

    def __enter__(self) -> "CodecWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- jobs ------------------------------------------------------------------

    def submit_compress(self, key: int, data: np.ndarray) -> Future:
        """Queue a compress job; ``data`` is copied, the caller may reuse it."""
        data = np.array(coerce_amplitudes(data), copy=True)
        return self._submit("compress", key, self.compressor.compress, data)

    def submit_decompress(self, key: int, blob: bytes) -> Future:
        """Queue a decompress job (the blob's dtype tag decides the output
        dtype)."""
        return self._submit("decompress", key, self.compressor.decompress,
                            blob)

    def _submit(self, kind: str, key: int, fn, arg) -> Future:
        job = self._exec.submit(self._run, kind, key, fn, arg)
        self._inflight += 1
        self._note_depth()
        return job

    def _run(self, kind: str, key: int, fn, arg):
        """The lane's whole part: call the codec, time it."""
        t0 = time.perf_counter()
        out = fn(arg)
        return kind, key, out, t0, time.perf_counter() - t0, self._lane.index

    def collect(self, job: Future) -> CodecResult:
        """Block until ``job`` finishes and return its result."""
        self._inflight -= 1
        self._note_depth()
        kind, key, out, t0, seconds, lane = job.result()
        self._busy += seconds
        if kind == "compress":
            return CodecResult(key, blob=out, start=t0, seconds=seconds,
                               worker=lane)
        return CodecResult(key, array=out, start=t0, seconds=seconds,
                           worker=lane)

    def _note_depth(self) -> None:
        if self.telemetry.enabled:
            self.telemetry.metrics.gauge("parallel.queue_depth").set(
                self._inflight)


def auto_workers(compressor: Compressor, chunk_size: int,
                 max_workers: int = 8) -> int:
    """Pick a lane count empirically (backend-selection style).

    Rule: fan out only when the machine has spare cores *and* a probe says
    one chunk's codec call takes long enough (≥ 0.5 ms) to pay for a
    lane's per-job hand-off — a queue put, a thread wake-up and the
    GIL-held Python of the codec call — and to leave room for the
    GIL-free part to overlap. BENCH_P1 puts the crossover between 2 KiB
    chunks (lanes lose) and 256 KiB chunks (lanes win); below the
    threshold the inline path wins — returns 1.
    """
    cores = os.cpu_count() or 1
    if cores <= 1:
        return 1
    probe_size = min(max(256, int(chunk_size)), 1 << 14)
    # a real-valued random chunk: its zero imaginary plane is a repeat, so
    # zlib deflates it (a dense one it would store raw, for nearly
    # nothing) and szlike quantises it; it is not one amplitude repeated
    v = np.random.default_rng(0).standard_normal(probe_size) + 0j
    v /= np.linalg.norm(v)
    # untimed warm-up: a codec's first call pays one-off set-up that a
    # run's thousands of calls never see
    compressor.decompress(compressor.compress(v))
    t0 = time.perf_counter()
    blob = compressor.compress(v)
    compressor.decompress(blob)
    dt = time.perf_counter() - t0
    est = dt * (max(1, chunk_size) / probe_size)
    if est < 5e-4:
        return 1
    return max(2, min(cores, max_workers))
