"""The job manager: shared-arena admission control and fair arbitration.

One :class:`ServeManager` owns the daemon's shared resources —

* **one** :class:`~repro.device.DeviceArena` sized by the daemon's device
  spec; every job's executor allocates from it,
* **one** :class:`PlanCache` keyed on (circuit shape, plan key, chunk size),
* optionally **one** :class:`~repro.parallel.CodecWorkerPool` (when the
  daemon's base config resolves to >1 workers), shared by jobs whose codec
  matches the pool's,

and runs the two control loops:

**Admission control.** Each submission's worst-case device working set is
computed up front (:func:`~repro.serve.jobs.device_lease_amplitudes`); a
job whose working set exceeds the arena outright is *rejected*, otherwise
it *queues* until an :class:`~repro.device.ArenaLease` of that size can be
granted. Because per-pass allocations never exceed the lease and the sum
of granted leases never exceeds capacity, admitted jobs can never hit
:class:`~repro.device.DeviceOutOfMemory` mid-run — concurrency degrades
into queueing, not into failures.

**Fair arbitration.** Queued jobs are grouped per tenant (FIFO within a
tenant) and granted round-robin across tenants: a rotating pointer scans
tenants from its current position and grants the first whose head job's
lease fits; the pointer advances only past tenants that were *granted*,
so a tenant skipped because the arena is momentarily full keeps its turn
— no tenant starves behind a chatty neighbour. (Known head-of-line
caveat: within one tenant a large queued job blocks that tenant's own
smaller jobs; across tenants it only yields its turn.)

Jobs run on worker threads; results, per-job telemetry, and cancellation
stay per-job, so concurrent runs are bit-identical to solo runs.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from ..core.config import MemQSimConfig
from ..core.memqsim import MemQSim
from ..core.plancache import PlanCache
from ..device.arena import DeviceArena
from ..memory.accounting import MemoryTracker
from ..pipeline.cancel import JobCancelled
from ..telemetry import Telemetry, get_logger
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobRejected,
    circuit_from_payload,
    config_from_payload,
)

__all__ = ["ServeManager"]

log = get_logger(__name__)


class ServeManager:
    """Multi-tenant job daemon core (no HTTP — see :mod:`.server`)."""

    def __init__(self, base_config: Optional[MemQSimConfig] = None,
                 telemetry: Optional[Telemetry] = None, *,
                 max_jobs: int = 4, plan_cache_capacity: int = 64,
                 events_dir: Optional[str] = None):
        """Args:
            base_config: the daemon's config; its ``device`` sizes the one
                shared arena, and submissions override only whitelisted
                execution knobs on top of it.
            telemetry: the *manager's* telemetry (``serve.*`` counters,
                shared-arena memory gauges, daemon ``/metrics``). Per-job
                telemetry is separate and always enabled.
            max_jobs: hard cap on simultaneously running jobs (the arena
                lease ledger is usually the binding constraint).
            plan_cache_capacity: distinct compiled plans kept resident.
            events_dir: when set, each finished job's event-bus tail is
                flushed to ``<events_dir>/<job_id>.events.jsonl``.
        """
        if max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")
        self.base_config = base_config if base_config is not None \
            else MemQSimConfig()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        tel = self.telemetry
        self.tracker = MemoryTracker()
        self.arena = DeviceArena(self.base_config.device, self.tracker)
        self.plan_cache = PlanCache(plan_cache_capacity, telemetry=tel)
        self.max_jobs = int(max_jobs)
        self.events_dir = events_dir
        self.codec_pool = self._make_shared_pool()
        # the shared arena's balances and the shared lanes' depth are the
        # daemon's own, read as its gauges
        tel.watch(tracker=self.tracker, lane=self.codec_pool)
        self.started_at = time.time()

        self._jobs: Dict[str, Job] = {}
        self._queues: Dict[str, Deque[Job]] = {}
        self._rr: List[str] = []  # tenant round-robin order
        self._rr_idx = 0
        self._running: Dict[str, Job] = {}
        self._workers: List[threading.Thread] = []
        self._cv = threading.Condition()
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True)
        self._dispatcher.start()

    # -- shared codec pool ----------------------------------------------------

    def _make_shared_pool(self):
        """One codec lane pool for the daemon, when the base config wants
        one.

        Its lanes all call the base config's codec, so only jobs whose
        resolved codec matches the base share it (checked per job in
        :meth:`_pool_for`); everyone else gets a private pool (or the
        inline path) from :class:`~repro.core.MemQSim` as usual.
        """
        cfg = self.base_config
        workers = cfg.resolve_workers()
        if workers <= 1:
            return None
        from ..parallel import CodecWorkerPool

        pool = CodecWorkerPool(cfg.make_compressor(), workers=workers)
        log.info("serve: shared codec pool, %d lane threads", workers)
        return pool

    def _pool_for(self, job: Job):
        pool = self.codec_pool
        if pool is None:
            return None
        base = self.base_config
        if (job.config.compressor != base.compressor
                or job.config.compressor_options != base.compressor_options):
            return None
        return pool

    # -- submission / queries -------------------------------------------------

    def submit(self, payload: Dict[str, Any]) -> Job:
        """Parse, admit (or queue), and register one submission."""
        if not isinstance(payload, dict):
            raise JobRejected("submission must be a JSON object")
        circuit = circuit_from_payload(payload)
        config = config_from_payload(self.base_config, payload)
        try:
            job = Job(circuit, config,
                      tenant=str(payload.get("tenant", "default")),
                      shots=int(payload.get("shots", 0) or 0),
                      seed=payload.get("seed"))
        except ValueError as exc:  # e.g. chunk_qubits > circuit qubits
            raise JobRejected(str(exc)) from exc
        if job.lease_amplitudes > self.arena.capacity:
            self._count("serve.jobs.rejected")
            raise JobRejected(
                f"working set {job.lease_amplitudes * 16:,}B can never fit "
                f"the shared arena ({self.arena.capacity * 16:,}B); "
                f"lower chunk_qubits or grow --device-mb")
        with self._cv:
            if self._closed:
                raise JobRejected("daemon is shutting down", status=503)
            self._jobs[job.id] = job
            if job.tenant not in self._queues:
                self._queues[job.tenant] = deque()
                self._rr.append(job.tenant)
            self._queues[job.tenant].append(job)
            self._cv.notify_all()
        self._count("serve.jobs.submitted")
        self._refresh_gauges()
        self._emit("serve.job.submitted", job_id=job.id, tenant=job.tenant,
                   n=circuit.num_qubits)
        log.info("serve: job %s submitted (tenant=%s n=%d lease=%dB)",
                 job.id, job.tenant, circuit.num_qubits, job.lease_amplitudes * 16)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._cv:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._cv:
            return sorted(self._jobs.values(), key=lambda j: j.submitted_at)

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a queued job immediately or a running one cooperatively."""
        with self._cv:
            job = self._jobs.get(job_id)
            if job is None or job.finished:
                return job
            if job.state == QUEUED:
                q = self._queues.get(job.tenant)
                if q is not None and job in q:
                    q.remove(job)
                job.state = CANCELLED
                job.finished_at = time.time()
                job.cancel.cancel("client request")
                self._count("serve.jobs.cancelled")
            else:
                job.cancel.cancel("client request")
            self._cv.notify_all()
        self._refresh_gauges()
        return job

    # -- arbitration ----------------------------------------------------------

    def _next_admissible_locked(self) -> Optional[Job]:
        """Round-robin scan: first tenant (from the pointer) whose head
        job's lease fits. Advances the pointer only past granted tenants."""
        n = len(self._rr)
        for off in range(n):
            tenant = self._rr[(self._rr_idx + off) % n]
            queue = self._queues.get(tenant)
            if not queue:
                continue
            job = queue[0]
            if self.arena.can_lease(job.lease_amplitudes):
                queue.popleft()
                self._rr_idx = (self._rr_idx + off + 1) % n
                return job
        return None

    def _dispatch_loop(self) -> None:
        while True:
            with self._cv:
                if self._closed and not self._running \
                        and not any(self._queues.values()):
                    return
                job = None
                if not self._closed and len(self._running) < self.max_jobs:
                    job = self._next_admissible_locked()
                if job is None:
                    self._cv.wait(timeout=0.2)
                    continue
                job.lease = self.arena.lease(job.lease_amplitudes,
                                             name=job.id)
                job.state = RUNNING
                job.started_at = time.time()
                self._running[job.id] = job
                worker = threading.Thread(
                    target=self._run_job, args=(job,),
                    name=f"repro-serve-job-{job.id}", daemon=True)
                self._workers.append(worker)
            self._refresh_gauges()
            worker.start()

    # -- job execution --------------------------------------------------------

    def _run_job(self, job: Job) -> None:
        self._emit("serve.job.start", job_id=job.id, tenant=job.tenant)
        sim = MemQSim(job.config, telemetry=job.telemetry,
                      plan_cache=self.plan_cache,
                      codec_pool=self._pool_for(job),
                      arena=self.arena, cancel=job.cancel)
        try:
            result = sim.run(job.circuit)
            job.result = result
            if job.shots:
                job.counts = result.sample(job.shots, seed=job.seed)
            job.state = DONE
            self._count("serve.jobs.completed")
            log.info("serve: job %s done (%.3fs)", job.id,
                     result.wall_seconds)
        except JobCancelled:
            job.state = CANCELLED
            self._count("serve.jobs.cancelled")
            log.info("serve: job %s cancelled (%s)", job.id,
                     job.cancel.reason)
        except Exception as exc:  # noqa: BLE001 — job faults stay per-job
            job.state = FAILED
            job.error = f"{type(exc).__name__}: {exc}"
            self._count("serve.jobs.failed")
            log.exception("serve: job %s failed", job.id)
        finally:
            job.finished_at = time.time()
            if job.lease is not None:
                self.arena.release_lease(job.lease)
            self._rollup_traffic(job)
            self._flush_events(job)
            self._emit("serve.job.end", job_id=job.id, state=job.state)
            with self._cv:
                self._running.pop(job.id, None)
                self._cv.notify_all()
            self._refresh_gauges()

    def _flush_events(self, job: Job) -> None:
        if not self.events_dir:
            return
        try:
            os.makedirs(self.events_dir, exist_ok=True)
            path = os.path.join(self.events_dir,
                                f"{job.id}.events.jsonl")
            n = job.telemetry.bus.write_jsonl(path)
            log.debug("serve: job %s events flushed (%d lines)", job.id, n)
        except OSError as exc:
            log.warning("serve: job %s event flush failed: %s", job.id, exc)

    # -- shutdown -------------------------------------------------------------

    def shutdown(self, grace: float = 30.0) -> None:
        """Graceful stop: queued jobs cancel, running jobs stop at their
        next group-pass boundary (store-consistent), events flush, the
        shared pool and arena release. Idempotent."""
        with self._cv:
            if self._closed and not self._running:
                pass  # second call: still join below (idempotent)
            self._closed = True
            for queue in self._queues.values():
                while queue:
                    job = queue.popleft()
                    job.state = CANCELLED
                    job.finished_at = time.time()
                    job.cancel.cancel("daemon shutdown")
                    self._count("serve.jobs.cancelled")
                    self._flush_events(job)
            running = list(self._running.values())
            self._cv.notify_all()
        for job in running:
            job.cancel.cancel("daemon shutdown")
        deadline = time.monotonic() + max(0.0, grace)
        self._dispatcher.join(timeout=max(0.1, deadline - time.monotonic()))
        for worker in self._workers:
            worker.join(timeout=max(0.1, deadline - time.monotonic()))
        if self.codec_pool is not None:
            self.codec_pool.close()
            self.codec_pool = None
        self.arena.reset()
        self._refresh_gauges()
        log.info("serve: shutdown complete (%d jobs tracked)",
                 len(self._jobs))

    # -- telemetry ------------------------------------------------------------

    def _count(self, name: str) -> None:
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(name).inc()

    def _emit(self, kind: str, **data) -> None:
        if self.telemetry.enabled:
            self.telemetry.emit(kind, **data)

    def _rollup_traffic(self, job: Job) -> None:
        """Fold a finished job's byte ledger into the daemon's counters.

        Each job runs on its own telemetry (per-job ledger); the daemon's
        ``/metrics`` should still answer "how many bytes has this process
        moved across each tier edge", so totals roll up here.
        """
        if not self.telemetry.enabled:
            return
        for edge, v in job.telemetry.traffic.totals().items():
            self.telemetry.metrics.counter(
                f"traffic.{edge}.bytes").inc(v["bytes"])

    def _refresh_gauges(self) -> None:
        if not self.telemetry.enabled:
            return
        m = self.telemetry.metrics
        with self._cv:
            queued = sum(len(q) for q in self._queues.values())
            running = len(self._running)
        m.gauge("serve.jobs.queued").set(queued)
        m.gauge("serve.jobs.running").set(running)
        m.gauge("serve.arena.leased.bytes").set(
            self.arena.leased_amplitudes * 16)

    def stats(self) -> Dict[str, Any]:
        """Daemon-level snapshot (the HTTP ``/`` endpoint)."""
        with self._cv:
            by_state: Dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            queued = sum(len(q) for q in self._queues.values())
            tenants = list(self._rr)
        return {
            "uptime_seconds": time.time() - self.started_at,
            "jobs": by_state,
            "queued": queued,
            "tenants": tenants,
            "max_jobs": self.max_jobs,
            "plan_cache": self.plan_cache.stats(),
            "arena": {
                "capacity_bytes": self.arena.capacity * 16,
                "leased_bytes": self.arena.leased_amplitudes * 16,
                "used_bytes": self.arena.used * 16,
                "peak_bytes": self.arena.peak_amplitudes * 16,
            },
            "codec_pool": {
                "shared": self.codec_pool is not None,
                "workers": getattr(self.codec_pool, "workers", 0),
            },
            "base_config": self.base_config.summary(),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (f"<ServeManager jobs={sum(s['jobs'].values())} "
                f"queued={s['queued']} tenants={len(s['tenants'])}>")
