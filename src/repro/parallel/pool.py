"""Process-pool codec workers (the paper's multi-core (de)compression lanes).

The SZ-like codec is CPU-bound pure numpy, and chunks within a stage pass
are independent — so chunk compress/decompress jobs fan out to a
:class:`concurrent.futures.ProcessPoolExecutor` whose workers each hold a
pickled copy of the codec. Design points:

* **payload shipping** — job inputs/outputs travel as plain bytes below
  :data:`DEFAULT_SHM_THRESHOLD` and through
  :mod:`multiprocessing.shared_memory` segments above it (one copy instead
  of a pickle round-trip for big staging buffers);
* **serial fallback** — ``workers=1`` never spawns anything (jobs run
  inline through the same API), and any pool failure (spawn refused, a
  worker crashing mid-job) *degrades* the pool to inline execution with a
  logged warning instead of hanging or corrupting results. Every pending
  job retains its input parent-side, so a crash loses no data — the job is
  simply redone inline;
* **determinism** — workers run the exact same codec on the exact same
  bytes, so blobs are identical to inline execution; the chunk store
  installs results in submission order;
* **telemetry** — worker-measured job timings merge into the parent's
  Chrome trace on per-worker lanes (``tid`` 100+), plus ``parallel.*``
  metrics (jobs, queue depth, utilization, fallbacks).
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..compression.interface import Compressor, coerce_amplitudes
from ..telemetry import NULL_TELEMETRY, get_logger

__all__ = [
    "CodecWorkerPool",
    "CodecJob",
    "CodecResult",
    "PoolStats",
    "auto_workers",
    "DEFAULT_SHM_THRESHOLD",
]

log = get_logger(__name__)

#: payloads at or above this many bytes ride a shared-memory segment
DEFAULT_SHM_THRESHOLD = 1 << 20

#: trace-lane (tid) base for worker spans — keeps them off the main lanes
WORKER_TID_BASE = 100


# -- worker-process side ------------------------------------------------------

_WORKER_COMPRESSOR: Optional[Compressor] = None


def _worker_init(payload: bytes) -> None:
    global _WORKER_COMPRESSOR
    _WORKER_COMPRESSOR = pickle.loads(payload)
    # Instantiate this worker's scratch pool up front (it is pid-keyed, so a
    # forked child would otherwise discard the parent's copied singleton on
    # first codec call; warming it here keeps that off the first job's clock).
    from ..memory.bufferpool import scratch_pool
    scratch_pool()


def _open_shm(name: str):
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


def _worker_compress(data: Optional[bytes], shm_name: Optional[str],
                     count: int, dtype: str = "complex128"):
    t_wall = time.time()
    t0 = time.perf_counter()
    dt = np.dtype(dtype)
    if shm_name is not None:
        shm = _open_shm(shm_name)
        try:
            arr = np.ndarray((count,), dtype=dt, buffer=shm.buf).copy()
        finally:
            shm.close()
    else:
        arr = np.frombuffer(data, dtype=dt)
    blob = _WORKER_COMPRESSOR.compress(arr)
    return blob, t_wall, time.perf_counter() - t0, os.getpid()


def _worker_decompress(blob: bytes, shm_name: Optional[str]):
    t_wall = time.time()
    t0 = time.perf_counter()
    # The blob's dtype tag decides the output dtype; the parent learns it
    # from the returned dtype name.
    arr = np.ascontiguousarray(_WORKER_COMPRESSOR.decompress(blob))
    if shm_name is not None:
        shm = _open_shm(shm_name)
        try:
            np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)[:] = arr
        finally:
            shm.close()
        payload = None
    else:
        payload = arr.tobytes()
    return (payload, arr.shape[0], arr.dtype.name, t_wall,
            time.perf_counter() - t0, os.getpid())


# -- parent side --------------------------------------------------------------


@dataclass
class CodecResult:
    """One finished codec job."""

    key: int
    blob: Optional[bytes] = None        # compress jobs
    array: Optional[np.ndarray] = None  # decompress jobs
    seconds: float = 0.0                # codec time (worker- or inline-measured)
    wall_start: float = 0.0             # time.time() at job start
    worker_pid: int = 0                 # 0 = ran inline in the parent


class CodecJob:
    """Handle for one in-flight (or already-finished) codec job.

    The input (``payload`` bytes or the ``shm`` segment) is retained until
    the job is collected, so a crashed worker can always be recovered by
    redoing the job inline.
    """

    __slots__ = ("kind", "key", "count", "dtype", "future", "payload", "shm",
                 "result")

    def __init__(self, kind: str, key: int, count: int = 0,
                 dtype=np.complex128):
        self.kind = kind          # "compress" | "decompress"
        self.key = key
        self.count = count        # amplitudes (compress input / decompress output)
        self.dtype = np.dtype(dtype)
        self.future = None
        self.payload: Optional[bytes] = None
        self.shm = None
        self.result: Optional[CodecResult] = None

    def done(self) -> bool:
        return self.result is not None or (
            self.future is not None and self.future.done())


@dataclass
class PoolStats:
    """Cumulative pool counters."""

    jobs: int = 0
    compress_jobs: int = 0
    decompress_jobs: int = 0
    inline_jobs: int = 0
    shm_jobs: int = 0
    fallbacks: int = 0
    busy_seconds: float = 0.0
    max_inflight: int = 0
    worker_pids: List[int] = field(default_factory=list)


class CodecWorkerPool:
    """Fans chunk codec jobs out to worker processes (or runs them inline).

    ``workers=1`` is the same-process serial path — no processes, no
    pickling, deterministic ordering by construction. ``workers>1`` spawns
    a :class:`~concurrent.futures.ProcessPoolExecutor` (``fork`` start
    method where available, the platform default otherwise) with the codec
    shipped once to each worker at init.
    """

    def __init__(
        self,
        compressor: Compressor,
        workers: int = 1,
        shm_threshold: int = DEFAULT_SHM_THRESHOLD,
        telemetry=None,
        start_method: Optional[str] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.compressor = compressor
        self.workers = int(workers)
        self.shm_threshold = int(shm_threshold) if shm_threshold > 0 \
            else (1 << 62)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.stats = PoolStats()
        self._exec = None
        self._inflight = 0
        self._tid_by_pid: Dict[int, int] = {}
        self._opened = time.perf_counter()
        self._closed = False
        if self.workers > 1:
            self._start(start_method)

    # -- lifecycle -----------------------------------------------------------

    def _start(self, start_method: Optional[str]) -> None:
        try:
            import multiprocessing as mp
            from concurrent.futures import ProcessPoolExecutor

            payload = pickle.dumps(self.compressor)
            methods = mp.get_all_start_methods()
            method = start_method or ("fork" if "fork" in methods
                                      else methods[0])
            self._exec = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=mp.get_context(method),
                initializer=_worker_init,
                initargs=(payload,),
            )
        except Exception as exc:  # unpicklable codec, sandboxed spawn, ...
            self._degrade(f"worker pool startup failed: {exc!r}")

    @property
    def is_parallel(self) -> bool:
        """Whether jobs currently go to worker processes."""
        return self._exec is not None

    def _degrade(self, reason: str) -> None:
        """Fall back to inline execution permanently (crash recovery)."""
        ex, self._exec = self._exec, None
        if ex is not None:
            try:
                ex.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
        self.stats.fallbacks += 1
        log.warning("codec worker pool degraded to serial execution: %s",
                    reason)
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("parallel.fallback").inc()

    def close(self) -> None:
        """Shut the pool down and publish utilization metrics."""
        if self._closed:
            return
        self._closed = True
        ex, self._exec = self._exec, None
        if ex is not None:
            ex.shutdown(wait=True)
        if self.telemetry.enabled:
            elapsed = max(1e-9, time.perf_counter() - self._opened)
            util = self.stats.busy_seconds / (self.workers * elapsed)
            self.telemetry.metrics.gauge("parallel.worker.utilization").set(
                min(1.0, util))

    def __enter__(self) -> "CodecWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- job submission ------------------------------------------------------

    def submit_compress(self, key: int, data: np.ndarray) -> CodecJob:
        """Queue a compress job; ``data`` is copied, caller may reuse it."""
        data = coerce_amplitudes(data)
        job = CodecJob("compress", key, count=data.shape[0],
                       dtype=data.dtype)
        if self._exec is None:
            self._run_inline(job, data=data)
            return job
        try:
            if data.nbytes >= self.shm_threshold:
                job.shm = self._make_shm(data.nbytes)
                np.ndarray(data.shape, dtype=data.dtype,
                           buffer=job.shm.buf)[:] = data
                self.stats.shm_jobs += 1
                args = (None, job.shm.name, data.shape[0], data.dtype.name)
            else:
                job.payload = data.tobytes()
                args = (job.payload, None, data.shape[0], data.dtype.name)
            job.future = self._exec.submit(_worker_compress, *args)
        except Exception as exc:
            self._degrade(f"submit failed: {exc!r}")
            self._cleanup_shm(job)
            self._run_inline(job, data=data)
            return job
        self._note_submit()
        return job

    def submit_decompress(self, key: int, blob: bytes,
                          count: Optional[int] = None,
                          dtype=np.complex128) -> CodecJob:
        """Queue a decompress job.

        ``count`` and ``dtype`` (if known) size the shm lane — the output
        dtype itself always comes from the blob's dtype tag.
        """
        job = CodecJob("decompress", key, count=count or 0, dtype=dtype)
        job.payload = blob
        if self._exec is None:
            self._run_inline(job)
            return job
        try:
            shm_name = None
            itemsize = job.dtype.itemsize
            if count and count * itemsize >= self.shm_threshold:
                job.shm = self._make_shm(count * itemsize)
                shm_name = job.shm.name
                self.stats.shm_jobs += 1
            job.future = self._exec.submit(_worker_decompress, blob, shm_name)
        except Exception as exc:
            self._degrade(f"submit failed: {exc!r}")
            self._cleanup_shm(job)
            self._run_inline(job)
            return job
        self._note_submit()
        return job

    # -- job collection ------------------------------------------------------

    def collect(self, job: CodecJob) -> CodecResult:
        """Block until ``job`` finishes and return its result.

        A worker crash (BrokenProcessPool / cancelled future / any error
        escaping the worker) degrades the pool and redoes the job inline —
        callers never hang and never observe a half-finished result.
        """
        if job.result is not None:
            return job.result
        try:
            raw = job.future.result()
        except Exception as exc:
            if self._exec is not None:
                self._degrade(
                    f"worker job failed ({type(exc).__name__}: {exc})")
            self._inflight = max(0, self._inflight - 1)
            self._note_depth()
            data = None
            if job.kind == "compress":
                data = self._retained_input(job)
            self._cleanup_shm(job)
            self._run_inline(job, data=data)
            return job.result
        self._inflight = max(0, self._inflight - 1)
        self._note_depth()
        if job.kind == "compress":
            blob, t_wall, dt, pid = raw
            res = CodecResult(job.key, blob=blob, seconds=dt,
                              wall_start=t_wall, worker_pid=pid)
        else:
            payload, n, dtype_name, t_wall, dt, pid = raw
            out_dt = np.dtype(dtype_name)
            if job.shm is not None:
                arr = np.ndarray((n,), dtype=out_dt,
                                 buffer=job.shm.buf).copy()
            else:
                arr = np.frombuffer(payload, dtype=out_dt)
            res = CodecResult(job.key, array=arr, seconds=dt,
                              wall_start=t_wall, worker_pid=pid)
        self._cleanup_shm(job)
        job.payload = None
        job.result = res
        self._account(job, res, inline=False)
        return res

    def drain(self, jobs: Sequence[CodecJob]) -> List[CodecResult]:
        return [self.collect(j) for j in jobs]

    # -- internals -----------------------------------------------------------

    def _run_inline(self, job: CodecJob,
                    data: Optional[np.ndarray] = None) -> None:
        t_wall = time.time()
        t0 = time.perf_counter()
        if job.kind == "compress":
            res = CodecResult(job.key,
                              blob=self.compressor.compress(data))
        else:
            res = CodecResult(job.key,
                              array=self.compressor.decompress(job.payload))
        res.seconds = time.perf_counter() - t0
        res.wall_start = t_wall
        job.result = res
        job.payload = None
        self._account(job, res, inline=True)

    def _retained_input(self, job: CodecJob) -> np.ndarray:
        """Recover a compress job's input from its retained payload/shm."""
        if job.shm is not None:
            return np.ndarray((job.count,), dtype=job.dtype,
                              buffer=job.shm.buf).copy()
        return np.frombuffer(job.payload, dtype=job.dtype)

    def _make_shm(self, nbytes: int):
        from multiprocessing import shared_memory

        return shared_memory.SharedMemory(create=True, size=nbytes)

    def _cleanup_shm(self, job: CodecJob) -> None:
        shm, job.shm = job.shm, None
        if shm is not None:
            try:
                shm.close()
                shm.unlink()
            except Exception:
                pass

    def _note_submit(self) -> None:
        self._inflight += 1
        self.stats.max_inflight = max(self.stats.max_inflight, self._inflight)
        self._note_depth()

    def _note_depth(self) -> None:
        if self.telemetry.enabled:
            self.telemetry.metrics.gauge("parallel.queue_depth").set(
                self._inflight)

    def _account(self, job: CodecJob, res: CodecResult, inline: bool) -> None:
        st = self.stats
        st.jobs += 1
        st.busy_seconds += res.seconds
        if job.kind == "compress":
            st.compress_jobs += 1
        else:
            st.decompress_jobs += 1
        if inline:
            st.inline_jobs += 1
        elif res.worker_pid and res.worker_pid not in st.worker_pids:
            st.worker_pids.append(res.worker_pid)
        tel = self.telemetry
        if not tel.enabled:
            return
        tel.metrics.counter("parallel.jobs").inc()
        if inline:
            tel.metrics.counter("parallel.jobs.inline").inc()
        if res.worker_pid:
            tid = self._tid_by_pid.setdefault(
                res.worker_pid, WORKER_TID_BASE + len(self._tid_by_pid))
            tel.tracer.record_at(
                f"worker.{job.kind}", res.seconds,
                wall_start=res.wall_start, tid=tid,
                key=job.key, pid=res.worker_pid, cat="parallel")
            # Forward the worker-measured job onto the live bus, re-anchored
            # from the child's wall clock onto the parent's event axis.
            if tel.bus is not None:
                tel.bus.publish_at(res.wall_start, f"worker.{job.kind}",
                                   key=job.key, pid=res.worker_pid,
                                   seconds=res.seconds)


def auto_workers(compressor: Compressor, chunk_size: int,
                 max_workers: int = 8) -> int:
    """Pick a worker count empirically (backend-selection style).

    Rule: fan out only when the machine has spare cores *and* a probe shows
    per-chunk codec time large enough that IPC overhead (~0.1–0.5 ms/job)
    amortizes. Otherwise parallel dispatch would only add latency, so the
    serial path wins — returns 1.
    """
    cores = os.cpu_count() or 1
    if cores <= 1:
        return 1
    probe_size = min(max(256, int(chunk_size)), 1 << 14)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(probe_size) + 1j * rng.standard_normal(probe_size)
    v /= np.linalg.norm(v)
    t0 = time.perf_counter()
    blob = compressor.compress(v)
    compressor.decompress(blob)
    dt = time.perf_counter() - t0
    est = dt * (max(1, chunk_size) / probe_size)
    if est < 5e-4:
        return 1
    return max(2, min(cores, max_workers))
