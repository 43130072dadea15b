"""The overlapped stage engine: double-buffered, schedule-exact prefetch.

:class:`ParallelStageScheduler` executes the same planned stages as the
serial :class:`~repro.pipeline.scheduler.StageScheduler`, but turns the
paper's Fig. 1 overlap into *actual* concurrency instead of an analytic
afterthought:

* decompression is **prefetched** in true future-access order: the engine
  derives the run's complete pass sequence from the compiled plan
  (:func:`repro.analysis.audit.predict_pass_schedule` — the same predictor
  the audit plane verifies against), so while one group is in its kernel
  phase the codec workers are already decompressing the *next* group the
  plan will touch — including the first group of the **next stage** when
  no permutation barrier intervenes (one extra staging buffer — classic
  double buffering, now across stage boundaries);
* recompression/store is **asynchronous**: compress jobs are submitted
  right after the kernel (the staged data is copied at submit), the
  staging buffer is released immediately, and blobs are installed into
  the store as jobs complete.

Correctness invariants:

* groups within a stage partition the chunk set, so a prefetched read can
  never race a pending write *within* the stage;
* a cross-stage prefetch may read chunks this stage wrote — the engine
  first **selectively drains** exactly those chunks' pending compress
  jobs, so the per-chunk read-modify-write order is still exactly the
  serial order;
* every pending compress job is drained before the stage returns, so the
  next stage (or a permutation relabeling, or result queries) always sees
  fully-written blobs;
* workers run the identical codec on identical bytes, and blobs are
  installed keyed by chunk id — results are bit-identical to serial
  execution (blob-for-blob, for lossy codecs too, given the same codec
  parameters). The equivalence harness in :mod:`repro.parallel.equivalence`
  enforces this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..compile import CompiledGateStage
from ..device.timeline import Stage
from ..pipeline.scheduler import StageProgram, StageScheduler
from .pool import CodecJob, CodecWorkerPool

__all__ = ["ParallelStageScheduler"]


class ParallelStageScheduler(StageScheduler):
    """Stage scheduler with concurrent codec lanes and overlapped passes.

    Construction matches :class:`StageScheduler` plus ``codec_pool``. It
    talks to the store through the blob-level surface
    (``get_blob``/``put_blob``), which every store and
    :class:`~repro.memory.cache.ChunkCache` expose.
    """

    def __init__(self, *args, codec_pool: Optional[CodecWorkerPool] = None,
                 **kwargs):
        super().__init__(*args, **kwargs)
        if codec_pool is None:
            codec_pool = CodecWorkerPool(self.store.compressor, workers=1,
                                         telemetry=self.telemetry)
        self.codec_pool = codec_pool
        # Schedule-exact prefetch state, valid for the duration of run():
        # per-stage sweep orders and, per gate stage, the next planned
        # pass across the stage boundary (None when a barrier intervenes).
        self._planned_orders: Optional[Dict[int, list]] = None
        self._next_pass: Optional[Dict[int, tuple]] = None
        self._cross = None  # (stage, group, buffer, jobs) prefetched ahead

    # -- run-level prefetch planning -----------------------------------------

    def run(self, stages) -> None:
        stages = list(stages)
        # Plan only from a pristine sweep state — the predictor assumes
        # serpentine parity 0, so a scheduler resumed mid-sequence falls
        # back to plain double buffering rather than risk order drift.
        if self._stage_parity == 0:
            self._plan_prefetch(stages)
        try:
            super().run(stages)
        finally:
            self._release_cross()
            self._planned_orders = None
            self._next_pass = None

    def _plan_prefetch(self, stages) -> None:
        """Derive the run's exact pass sequence from the plan.

        Produces the per-stage sweep orders (so execution and prediction
        cannot drift) and, for each gate stage, the first pass of the
        following gate stage when no permutation barrier sits between
        them — the cross-boundary prefetch target. Keyed by the absolute
        stage indices this scheduler will assign.
        """
        from ..analysis.audit import predict_pass_schedule

        passes = predict_pass_schedule(stages, self.layout, self.serpentine)
        base = self._stage_index  # stages execute at consecutive indices
        orders: Dict[int, list] = {}
        flat: List[tuple] = []
        for kind, si, gi, members in passes:
            flat.append((kind, base + si, gi, members))
            if kind == "pass":
                orders.setdefault(base + si, []).append((gi, members))
        next_pass: Dict[int, tuple] = {}
        for i, (kind, si, gi, members) in enumerate(flat):
            if kind != "pass" or i + 1 >= len(flat):
                continue
            nkind, nsi, ngi, nmembers = flat[i + 1]
            if nkind == "pass" and nsi != si:
                next_pass[si] = (nsi, ngi, nmembers)
        self._planned_orders = orders
        self._next_pass = next_pass

    def _take_cross(self, si: int, gi) -> Optional[tuple]:
        """Claim the cross-stage prefetch if it targets pass (si, gi)."""
        cross = self._cross
        if cross is None:
            return None
        self._cross = None
        csi, cgi, buf, jobs = cross
        if csi == si and cgi == gi:
            return (buf, jobs)
        # Mispredicted (out-of-plan run_stage use): discard safely.
        self.codec_pool.drain(jobs)
        self.pool.release(buf)
        return None

    def _release_cross(self) -> None:
        if self._cross is not None:
            _csi, _cgi, buf, jobs = self._cross
            self._cross = None
            self.codec_pool.drain(jobs)
            self.pool.release(buf)

    # -- gate stages ---------------------------------------------------------

    def _run_gate_stage(self, stage: CompiledGateStage, si: int = -1) -> None:
        placement = self.layout.chunk_groups(stage.group_qubits)
        group_size = self.layout.chunk_size << len(placement.group_qubits)
        cpu_every = self._cpu_every()
        planned = self._planned_orders.get(si) \
            if self._planned_orders is not None else None
        order = planned if planned is not None else \
            self._group_order(placement)
        program = StageProgram(stage, self.layout, placement)
        pending: List[Tuple[int, int, CodecJob]] = []
        # (buffer, decompress jobs) for the next group; seeded by the
        # previous stage's cross-boundary prefetch when it targeted us.
        prefetch = self._take_cross(si, order[0][0]) if order else None
        try:
            for idx, (gi, members) in enumerate(order):
                # Group-pass cancellation checkpoint, mirroring the serial
                # engine; the finally block below drains any prefetched
                # loads and pending stores so the store stays consistent.
                self.cancel.raise_if_cancelled()
                self.telemetry.traffic.set_pass(si, gi)
                if self.schedule is not None:
                    self.schedule.begin_pass(si, gi)
                cpu_path = cpu_every > 0 and (gi % cpu_every == 0)
                ops = self._ops_for_group(program, members[0])
                if prefetch is None:
                    buf = self.pool.acquire()
                    jobs = self._submit_loads(members)
                else:
                    buf, jobs = prefetch
                    prefetch = None
                view = buf[:group_size]
                self._collect_loads(gi, members, jobs, view)
                # Prefetch the next group *before* this group's kernel so
                # its decompression runs on the workers during the kernel.
                if idx + 1 < len(order) and self.pool.available > 0:
                    nbuf = self.pool.acquire()
                    # Blob reads for the *next* group (the disk tier pays
                    # them at submit) attribute to that group, not this one.
                    with self.telemetry.traffic.attributed(
                            si, order[idx + 1][0]):
                        prefetch = (nbuf,
                                    self._submit_loads(order[idx + 1][1]))
                with self.telemetry.span(
                    "group_pass", stage=si, group=gi,
                    path="cpu" if cpu_path else "device",
                    chunks=len(members),
                    nbytes=group_size * self.layout.itemsize,
                    parallel=True,
                ):
                    if cpu_path:
                        self._cpu_update(gi, ops, view)
                    else:
                        self._device_update(gi, ops, view)
                self._submit_stores(gi, members, view, pending)
                self.pool.release(buf)
                self._drain_stores(pending, block=False)
                self.stats.group_passes += 1
                self.telemetry.progress.group_done(si)
                self.telemetry.emit("group", stage=si, group=gi,
                                    chunks=len(members),
                                    path="cpu" if cpu_path else "device",
                                    parallel=True)
            # Schedule-exact cross-boundary prefetch: the plan says which
            # pass runs next (no barrier between); issue its decompress
            # jobs now so they overlap this stage's final compress drain.
            nxt = self._next_pass.get(si) \
                if self._next_pass is not None else None
            if nxt is not None and self.pool.available > 0:
                nsi, ngi, nmembers = nxt
                # RMW guard: this stage may have written chunks the next
                # pass reads — install exactly those blobs first.
                self._drain_stores(pending, block=True, only=set(nmembers))
                nbuf = self.pool.acquire()
                with self.telemetry.traffic.attributed(nsi, ngi):
                    self._cross = (nsi, ngi, nbuf,
                                   self._submit_loads(nmembers))
        finally:
            if prefetch is not None:
                nbuf, jobs = prefetch
                self.codec_pool.drain(jobs)
                self.pool.release(nbuf)
            # Stage barrier: every blob installed before anything downstream
            # (next stage, permutation, result query) reads the store.
            self._drain_stores(pending, block=True)

    # -- codec-lane plumbing -------------------------------------------------

    def _submit_loads(self, members: Tuple[int, ...]) -> List[CodecJob]:
        cs = self.layout.chunk_size
        dtype = getattr(self.store, "dtype", np.complex128)
        jobs = []
        for chunk in members:
            blob = self.store.get_blob(chunk)
            if blob is None:
                raise KeyError(f"chunk {chunk} not initialized")
            jobs.append(self.codec_pool.submit_decompress(chunk, blob,
                                                          count=cs,
                                                          dtype=dtype))
        return jobs

    def _collect_loads(self, gi: int, members: Tuple[int, ...],
                       jobs: List[CodecJob], view: np.ndarray) -> None:
        cs = self.layout.chunk_size
        for slot, job in enumerate(jobs):
            # The pool drops the retained input payload at collect time;
            # grab the compressed size first for the ledger.
            blob_nbytes = len(job.payload) if job.payload is not None else 0
            res = self.codec_pool.collect(job)
            arr = res.array
            if arr.shape[0] != cs:
                raise ValueError(
                    f"chunk {job.key} decompressed to {arr.shape[0]} "
                    f"amplitudes, expected {cs}"
                )
            view[slot * cs:(slot + 1) * cs] = arr
            # Collect order == serial load order, so the access trace is
            # identical to serial execution regardless of prefetch timing.
            self.telemetry.access.record(job.key, self._audit_si, "r")
            self.telemetry.record_stage(
                self.timeline, Stage.DECOMPRESS, res.seconds,
                chunk=gi, nbytes=self.layout.chunk_nbytes, chunk_id=job.key,
                worker=res.worker_pid)
            self.store.note_decompressed(
                arr.nbytes, res.seconds, blob_nbytes=blob_nbytes,
                worker=res.worker_pid)

    def _submit_stores(self, gi: int, members: Tuple[int, ...],
                       view: np.ndarray,
                       pending: List[Tuple[int, int, CodecJob]]) -> None:
        cs = self.layout.chunk_size
        for slot, chunk in enumerate(members):
            # Submit order == serial store order (the trace's write point;
            # the blob lands whenever the drain collects it).
            self.telemetry.access.record(chunk, self._audit_si, "w")
            job = self.codec_pool.submit_compress(
                chunk, view[slot * cs:(slot + 1) * cs])
            pending.append((gi, chunk, job))

    def _drain_stores(self, pending: List[Tuple[int, int, CodecJob]],
                      block: bool, only=None) -> None:
        """Install completed compress blobs; ``only`` restricts a blocking
        drain to that chunk set (the cross-stage prefetch's RMW guard)."""
        remaining: List[Tuple[int, int, CodecJob]] = []
        for gi, chunk, job in pending:
            if only is not None and chunk not in only:
                remaining.append((gi, chunk, job))
                continue
            if not block and not job.done():
                remaining.append((gi, chunk, job))
                continue
            res = self.codec_pool.collect(job)
            # Drains run while a *later* group's pass is the ambient
            # context; the blob belongs to the group that submitted it.
            with self.telemetry.traffic.attributed(self._audit_si, gi):
                self.store.put_blob(chunk, res.blob, seconds=res.seconds,
                                    data_nbytes=self.layout.chunk_nbytes,
                                    worker=res.worker_pid)
            self.telemetry.record_stage(
                self.timeline, Stage.COMPRESS, res.seconds,
                chunk=gi, nbytes=self.layout.chunk_nbytes, chunk_id=chunk,
                worker=res.worker_pid)
        pending[:] = remaining
