"""MEMQSim: the memory-efficient chunked state-vector simulator.

This is the paper's contribution wired together:

* **offline stage** — resolve the chunk layout against the device spec,
  initialize the compressed chunk store (every chunk independently
  compressed in host memory), and partition the circuit into execution
  stages (:mod:`repro.pipeline.planner`);
* **online stage** — stream every chunk group through decompress -> H2D ->
  kernel -> D2H -> recompress (:mod:`repro.pipeline.scheduler`), with the
  codec on idle-core lane threads when ``workers > 1``;
* **telemetry** — per-stage measured timings, the online stage's stopwatch
  time, memory peaks by category, compression ratio and qubit headroom.

Example::

    from repro.circuits import qft
    from repro.core import MemQSim

    sim = MemQSim()                      # defaults: szlike codec, sync copy
    result = sim.run(qft(14))
    print(result.report())
    counts = result.sample(1000)
"""

from __future__ import annotations

import time
import uuid
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from ..circuits.circuit import Circuit
from ..compile import Hoisted, compile_stages, hoist_permutations
from ..device.executor import DeviceExecutor
from ..device.timeline import Timeline
from ..device.transfer import SyncCopy
from ..memory.accounting import MemoryTracker
from ..memory.bufferpool import BufferPool
from ..memory.chunkstore import CompressedChunkStore
from ..memory.hierarchy import MemoryHierarchy, TieredChunkStore
from ..memory.layout import ChunkLayout
from ..pipeline.planner import (STAGING_BUFFERS, describe_plan,
                                max_group_qubits_for, plan_stages)
from ..pipeline.scheduler import StageScheduler, stage_programs
from ..pipeline.sweep import live_chunks, predict_pass_schedule
from ..statevector.statevector import StateVector
from ..telemetry import (
    NULL_TELEMETRY,
    ProgressTracker,
    ResourceMonitor,
    Telemetry,
    get_logger,
    set_run_id,
)
from .backend import MixedPrecisionBackend, NumpyKernelBackend
from .config import MemQSimConfig
from .precision import compute_dtype
from .plancache import CachedPlan, PlanCache
from .results import MemQSimResult

__all__ = ["MemQSim", "PlanChoice", "plan_circuit", "chunk_loads_from_zero"]

log = get_logger(__name__)


def chunk_loads_from_zero(stages, layout) -> int:
    """Chunks ``stages`` load when only chunk 0 is non-zero: the chunk
    round trips of a run from |0...0>, which is what plans are
    ranked by (a pass over ``2^t`` chunks costs ``2^t`` of them, so pass
    counts alone mis-rank plans with different group widths)."""
    return sum(len(members) for kind, _si, _gi, members
               in predict_pass_schedule(stages, layout, support={0})
               if kind == "pass")


@dataclass(frozen=True)
class PlanChoice:
    """What :func:`plan_circuit` chose, and from what."""

    stages: list
    #: the hoisting the stages were planned under, or ``None`` when they
    #: were planned from the circuit as written
    hoisted: Optional[Hoisted]
    #: ``"forward"``, or ``"backward"`` for a plan made on the reversed
    #: circuit (it may start at any qubit map and ends at the identity)
    direction: str
    #: ``((circuit, direction), chunk loads from |0...0>)`` per candidate,
    #: in tie order; empty when only one plan was made
    candidates: Tuple[Tuple[Tuple[str, str], int], ...] = ()


def plan_circuit(circuit: Circuit, layout: ChunkLayout, max_group_qubits: int,
                 *, zero_start: bool, enable_permutation_stages: bool = True
                 ) -> PlanChoice:
    """The offline partition of a run (see :class:`PlanChoice`).

    A run from any given state plans the circuit as written, forward: the
    plan starts and ends at the identity qubit map. From |0...0> two more
    freedoms open up, because every qubit permutation leaves that state
    alone:

    * the circuit's swaps need not be planned at all: with ``C = C'' · Π``
      (:func:`~repro.compile.hoist_permutations`) the swap-free ``C''``
      gives the same final state and every ``swap(local, global)`` is a
      sweep not made;
    * the plan may start at any map, so it can be made backwards
      (``plan_stages(..., backward=True)``): it then ends at home by
      construction, with no sweeps spent only on bringing qubits back.

    The planner is greedy, so neither is always cheaper (relabeling
    changes which qubits sit at global positions; a backward plan may
    stream wider groups): every candidate is planned and the one with the
    fewest :func:`chunk_loads_from_zero` is kept, ties going to the first
    of hoisted forward, written forward, hoisted backward, written
    backward (so a tie keeps the forward plan). The stages' ``slots``
    index the circuit they were planned from; hand ``hoisted`` to
    :func:`~repro.compile.compile_stages` with them.

    (It lives beside :class:`MemQSim` because it is that run's planning
    step: ``plan_stages`` is called as this module's global, where the
    end-to-end benchmark's tracer wraps it.)
    """
    def partition(c, direction):
        return plan_stages(c, layout, max_group_qubits,
                           enable_permutation_stages=enable_permutation_stages,
                           backward=direction == "backward")

    if not zero_start:
        return PlanChoice(partition(circuit, "forward"), None, "forward")
    hoisted = hoist_permutations(circuit)
    sources = [("hoisted", hoisted)] if hoisted.swaps else []
    sources.append(("written", None))
    best, candidates = None, []
    for direction in ("forward", "backward"):
        for name, source in sources:
            stages = partition(circuit if source is None else source.circuit,
                               direction)
            loads = chunk_loads_from_zero(stages, layout)
            candidates.append(((name, direction), loads))
            if best is None or loads < best[0]:
                best = (loads, PlanChoice(stages, source, direction))
    return replace(best[1], candidates=tuple(candidates))


class MemQSim:
    """Memory-efficient modular state-vector simulator (the paper's system)."""

    def __init__(self, config: Optional[MemQSimConfig] = None,
                 telemetry: Optional[Telemetry] = None, *,
                 plan_cache=None, codec_pool=None, arena=None, cancel=None,
                 **overrides):
        """Create a simulator.

        Args:
            config: full configuration; defaults to :class:`MemQSimConfig`.
            telemetry: a :class:`~repro.telemetry.Telemetry` object to
                thread through every layer of the run (tracer spans per
                pipeline hop, metrics, memory gauges); default disabled.
            plan_cache: the :class:`~repro.core.plancache.PlanCache` to
                use instead of a private one — how the serve daemon shares
                plans across jobs. Keyed on (circuit shape, plan-affecting
                config knobs, resolved chunk size): the same circuit again
                skips planning *and* compilation, the same shape with new
                parameter values only binds the cached template to them.
            codec_pool: optional externally-owned
                :class:`~repro.parallel.CodecWorkerPool` shared across
                runs (the service plane's shared lanes). Must be
                built for a codec byte-identical to this config's. The
                run attaches it to the chunk store as its codec lane and
                detaches it on every exit; it never closes it.
            arena: optional externally-owned (possibly shared,
                multi-tenant) :class:`~repro.device.DeviceArena`; the
                run's device executor then allocates from it instead of
                creating a private arena.
            cancel: optional :class:`~repro.pipeline.CancelToken`; the
                scheduler polls it at group-pass boundaries and raises
                :class:`~repro.pipeline.JobCancelled`.
            **overrides: convenience field overrides applied on top, e.g.
                ``MemQSim(compressor="zlib", chunk_qubits=8)``.
        """
        base = config if config is not None else MemQSimConfig()
        self.config = base.with_updates(**overrides) if overrides else base
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.plan_cache = plan_cache if plan_cache is not None \
            else PlanCache()
        self.codec_pool = codec_pool
        self.arena = arena
        self.cancel = cancel

    # -- public API ---------------------------------------------------------

    def run(
        self,
        circuit: Circuit,
        initial_state: Optional[StateVector] = None,
        checkpoint: Optional[str] = None,
        initial_store: Optional[CompressedChunkStore] = None,
    ) -> MemQSimResult:
        """Simulate ``circuit`` and return a streaming result handle.

        Args:
            circuit: the circuit to execute.
            initial_state: optional dense initial state (default |0...0>).
            checkpoint: optional path to a compressed-store checkpoint
                written by :meth:`MemQSimResult.save_state`; resumes from
                that state without ever densifying. The checkpoint's
                layout overrides the configured chunk size.
            initial_store: optional in-memory compressed store to continue
                from (e.g. ``previous_result.store``); reused in place,
                layout overrides the configured chunk size. At most one of
                the three initial-state options may be given.
        """
        cfg = self.config
        tel = self.telemetry
        run_id = uuid.uuid4().hex[:12]
        set_run_id(run_id)  # log records now carry [run_id/span]
        monitor = None
        if tel.enabled and cfg.monitor_interval_ms > 0:
            monitor = ResourceMonitor(
                tel, interval_ms=cfg.monitor_interval_ms).start()
            tel.monitor = monitor
        try:
            return self._run(circuit, initial_state, checkpoint,
                             initial_store, monitor, run_id)
        finally:
            if monitor is not None:
                monitor.stop()  # idempotent; real stop happens pre-result
                tel.monitor = None
            # Freeze the progress clock on every exit path. The finished
            # tracker stays attached so a post-run poll (a daemon job's
            # /jobs/{id}) reports exactly 1.0; the next run swaps in a
            # fresh tracker.
            if tel.enabled and tel.progress is not None:
                tel.progress.finish()
            set_run_id("")

    def _run(self, circuit, initial_state, checkpoint, initial_store,
             monitor, run_id: str = "") -> MemQSimResult:
        cfg = self.config
        tel = self.telemetry
        n = circuit.num_qubits
        t_wall = time.perf_counter()
        fuse = cfg.resolve_fuse_gates()
        if tel.enabled:
            tel.emit("run.start", run_id=run_id, n=n, gates=len(circuit))
        given = sum(
            x is not None for x in (initial_state, checkpoint, initial_store)
        )
        if given > 1:
            raise ValueError(
                "pass at most one of initial_state / checkpoint / initial_store"
            )
        log.debug("run: n=%d gates=%d [%s]", n, len(circuit), cfg.summary())

        # ---- offline stage -------------------------------------------------
        tracker = MemoryTracker(telemetry=tel if tel.enabled else None)
        if initial_store is not None:
            # Unwrap a cache layer from a previous run's result if present
            # (flushing its dirty chunks into the underlying store first).
            initial_store.flush()
            store = getattr(initial_store, "inner", initial_store)
            if store.layout.num_qubits != n:
                raise ValueError(
                    f"initial store has {store.layout.num_qubits} qubits, "
                    f"circuit has {n}"
                )
            tracker = store.tracker
            if tel.enabled:
                tracker.attach_telemetry(tel)
                store.telemetry = tel
            layout = store.layout
            c = layout.chunk_qubits
        elif checkpoint is not None:
            from ..memory.persist import load_store

            store = load_store(checkpoint, cfg.make_compressor(), tracker)
            if tel.enabled:
                store.telemetry = tel
            if store.layout.num_qubits != n:
                raise ValueError(
                    f"checkpoint has {store.layout.num_qubits} qubits, "
                    f"circuit has {n}"
                )
            layout = store.layout
            c = layout.chunk_qubits
        else:
            c = cfg.resolve_chunk_qubits(n)
            layout = ChunkLayout(n, c, itemsize=cfg.storage_itemsize())
            store = self._make_store(layout, tracker, cfg)
            if initial_state is not None:
                if initial_state.num_qubits != n:
                    raise ValueError("initial state does not match circuit size")
                store.init_from_statevector(initial_state.data)
            else:
                store.init_zero_state()

        if layout.itemsize != cfg.storage_itemsize():
            # A checkpoint / initial store fixes the amplitude dtype; adopt
            # its precision so the plan key, sizing math, and buffers agree
            # with the blobs we are about to stream.
            adopted = "c64" if layout.itemsize == 8 else "c128"
            log.info("adopting precision=%s from the initial store "
                     "(itemsize %d)", adopted, layout.itemsize)
            cfg = cfg.with_updates(precision=adopted)
        dtype = layout.dtype

        t_max = max_group_qubits_for(layout, cfg.device)
        # Plan cache: keyed on circuit shape + plan-affecting knobs + the
        # *resolved* chunk size (checkpoint / initial-store layouts
        # override the configured one, so `c` must be part of the key) +
        # whether the start is |0...0>, which alone may drop a permutation.
        zero_start = given == 0
        shape, values = circuit.shape_and_values()
        cache_key = (shape, cfg.plan_key(), c, zero_start)
        # One caller compiles a missing key; an identical concurrent run
        # waits for it and finds the entry it stored.
        with self.plan_cache.claim(cache_key, values) as cached:
            if cached is not None and cached.values == values:
                plan_source, entry = "hit", cached
                plan, programs = cached.plan, cached.programs
                cplan = replace(cached.bound, report=replace(
                    cached.bound.report, seconds=0.0))
            else:
                hoisted, direction = None, "forward"
                if cached is None:
                    plan_source = "miss"
                    choice = plan_circuit(
                        circuit, layout, t_max, zero_start=zero_start,
                        enable_permutation_stages=(
                            cfg.enable_permutation_stages))
                    stages, hoisted, direction = \
                        choice.stages, choice.hoisted, choice.direction
                    plan = describe_plan(stages, layout)
                else:
                    # Same shape, other angles: every decision stands.
                    plan_source = "rebound"
                    stages, plan = cached.bound.template, cached.plan
                # Compile (lower + fuse, or bind alone) once; the device
                # executor consumes this one lowered plan.
                cplan = compile_stages(
                    stages, layout, fuse,
                    telemetry=tel, gates=circuit.gates, hoisted=hoisted,
                    direction=direction,
                    itemsize=compute_dtype(cfg.precision).itemsize,
                )
                # Each op's lowering into a group's frame is kept with the
                # plan; a rebind carries over those of the ops it left
                # alone.
                programs = stage_programs(
                    cplan.stages, layout,
                    cached.programs if cached is not None else None)
                # Compiled stages are immutable once built; sharing the same
                # lowered plan across runs (and tenants) is safe. A rebind
                # moves no group, so the pass schedules carry over.
                entry = CachedPlan(plan, values, cplan, programs)
                if cached is not None:
                    entry = replace(entry, schedules=cached.schedules)
                self.plan_cache.store(cache_key, entry)
        log.debug("compile (%s): %d gates -> %d ops (ratio %.2f, fusion=%s)",
                  plan_source, cplan.report.gates_in, cplan.report.ops_out,
                  cplan.report.fusion_ratio, fuse)
        # The cached plan is state-independent; which of its group passes
        # run depends on the start state. The store is initialised, so its
        # support set is known: this list is the sweep the scheduler
        # iterates and every schedule-aware layer is built from. The plan
        # keeps it per support set, so a run from a start seen before
        # derives nothing.
        support = frozenset(live_chunks(store))
        passes = entry.pass_schedule(
            support,
            lambda: predict_pass_schedule(cplan.stages, layout, support))
        plan = replace(plan, group_passes=sum(
            kind == "pass" for kind, *_ in passes))
        if tel.enabled:
            # The offline stage ends here: store initialized, plan fixed.
            tel.tracer.record("offline", time.perf_counter() - t_wall,
                              stages=plan.num_stages,
                              group_passes=plan.group_passes,
                              chunk_qubits=c)
            # The compiled plan fixes the whole schedule, so total work is
            # exact from here on — attach the run's plan-aware tracker.
            tel.progress = ProgressTracker.from_plan(
                cplan.stages, layout, run_id=run_id, passes=passes).start()
        log.debug("offline: %d stages, %d group passes, chunk_qubits=%d",
                  plan.num_stages, plan.group_passes, c)

        # Host budget check: compressed store + staging must fit.
        group_qubits_used = plan.max_group_size
        buffer_amps = layout.chunk_size << group_qubits_used
        pool_bytes = STAGING_BUFFERS * buffer_amps * layout.itemsize
        if pool_bytes > cfg.host.memory_bytes:
            raise MemoryError(
                f"host budget {cfg.host.memory_bytes:,}B cannot hold "
                f"{STAGING_BUFFERS} staging buffers of "
                f"{buffer_amps * layout.itemsize:,}B"
            )

        # ---- online stage ----------------------------------------------------
        # Every hop is booked here, once, by the layer that runs it; an
        # enabled telemetry's exports draw the rows as spans.
        timeline = Timeline()
        if tel.enabled:
            tel.tracer.attach(timeline)

        backend = NumpyKernelBackend()
        if cfg.precision == "mixed":
            # c64 at rest on every tier edge; the kernels see c128.
            backend = MixedPrecisionBackend(backend)
        executor = DeviceExecutor(
            cfg.device, transfer=SyncCopy(tel), timeline=timeline,
            tracker=tracker, backend=backend, arena=self.arena,
        )
        # The codec pool is a property of the store, not of the loop: an
        # external (service-plane) pool is shared across jobs and never
        # closed here; without one the run builds its own when the
        # resolved worker count exceeds 1.
        codec_pool = self.codec_pool
        owns_codec_pool = False
        if codec_pool is not None:
            workers = codec_pool.workers
        else:
            workers = cfg.resolve_workers(layout.chunk_size)
            if workers > 1:
                from ..parallel import CodecWorkerPool

                codec_pool = CodecWorkerPool(store.compressor,
                                             workers=workers, telemetry=tel)
                owns_codec_pool = True
        if codec_pool is not None:
            store.attach_lane(codec_pool)
            log.debug("online: codec lane, %d threads%s", workers,
                      "" if owns_codec_pool else " (shared)")
        pool = BufferPool(STAGING_BUFFERS, buffer_amps, tracker,
                          telemetry=tel, dtype=dtype)
        finished = False
        hierarchy = None
        try:
            hierarchy = MemoryHierarchy.build(
                store, cache_chunks=cfg.cache_chunks,
                cache_policy=cfg.cache_policy, tracker=tracker,
                telemetry=tel,
            )
            # Belady eviction, plan-aware spilling and the lane's prefetch
            # all consume the access schedule of the same pass list; the
            # scheduler advances its cursor at every group pass and
            # permutation barrier.
            schedule = hierarchy.attach_plan(passes)
            store_like = hierarchy.store_like
            scheduler = StageScheduler(
                layout, store_like, executor, pool, timeline,
                fuse_gates=fuse,
                observer=tel.observer(),
                cancel=self.cancel,
                schedule=schedule,
            )
            with (tel.span("online", stages=plan.num_stages, workers=workers)
                  if tel.enabled else nullcontext()):
                t_online = time.perf_counter()
                scheduler.run(cplan.stages, passes, programs)
                online = time.perf_counter() - t_online
            finished = True
        finally:
            # Cleanup must run on *every* exit (including JobCancelled):
            # every pending write lands and the store forgets the pool, so
            # a cancelled run's store reloads chunk-consistent and a shared
            # pool outlives the job; an executor on a shared arena must not
            # leak staging allocations. A run that did not finish also
            # writes its cache back (a finished one flushed in the
            # scheduler), so its store is what its passes left. A codec
            # error surfaces from unwinding only when the run itself
            # finished: an exception already on its way out
            # (JobCancelled) is the one the caller sees. The rest is
            # released regardless.
            steps = [store.detach_lane]
            if not finished and hierarchy is not None:
                steps.insert(0, hierarchy.store_like.flush)
            try:
                for step in steps:
                    try:
                        step()
                    except Exception as exc:
                        if finished:
                            raise
                        log.debug("lane error while unwinding: %r", exc)
            finally:
                if owns_codec_pool:
                    codec_pool.close()
                pool.close()
                executor.reset()

        # Close the resource timeline before timing stops so the final
        # sample (store recompressed, arena drained) is part of the record.
        if monitor is not None:
            monitor.stop()
        if tel.enabled:
            tel.progress.finish()
        wall = time.perf_counter() - t_wall
        if tel.enabled:
            tel.emit("run.end", run_id=run_id, n=n, seconds=wall)
            tel.tracer.record("run", wall, n=n, gates=len(circuit))
            m = tel.metrics
            m.counter("run.count").inc()
            m.gauge("run.wall.seconds").set(wall)
            m.gauge("run.online.seconds").set(online)
        log.info("run done: n=%d wall=%.3fs", n, wall)
        config_echo = {
            "chunk_qubits": c,
            "precision": cfg.precision,
            "compressor": cfg.compressor,
            "cache_chunks": cfg.cache_chunks,
            "cache_policy": cfg.cache_policy,
            "fuse_gates": fuse,
            "fusion": fuse,
            "store": "tiered" if isinstance(store, TieredChunkStore)
            else "memory",
            "host_store_mb": cfg.host_store_mb,
            "hierarchy": hierarchy.describe(),
            "workers": workers,
            "plan_cache": plan_source,
            "swaps_hoisted": cplan.report.swaps_hoisted,
            "front_permutation": list(cplan.report.front_permutation),
            "plan_direction": cplan.report.plan_direction,
        }
        return MemQSimResult(
            num_qubits=n,
            store=store_like if cfg.cache_chunks else store,
            timeline=timeline,
            tracker=tracker,
            plan=plan,
            scheduler_stats=scheduler.stats,
            wall_seconds=wall,
            online_seconds=online,
            config_summary=cfg.summary(),
            telemetry=tel,
            config_echo=config_echo,
            resource_timeline=None if monitor is None else monitor.timeline(),
            compile_report=cplan.report,
            compiled_stages=cplan.stages,
            run_id=run_id,
            precision=cfg.precision,
            # Fidelity oracle is only meaningful for a known |0...0> start.
            oracle_circuit=circuit if (initial_state is None
                                       and checkpoint is None
                                       and initial_store is None) else None,
        )

    def _make_store(self, layout: ChunkLayout, tracker: MemoryTracker,
                    cfg: MemQSimConfig) -> CompressedChunkStore:
        """RAM-only unless the config budgets host RAM or names a log file."""
        if cfg.host_store_mb <= 0 and cfg.disk_path is None:
            return CompressedChunkStore(layout, cfg.make_compressor(), tracker,
                                        telemetry=self.telemetry)
        return TieredChunkStore(
            layout, cfg.make_compressor(), cfg.disk_path,
            int(cfg.host_store_mb * (1 << 20)),
            tracker=tracker, telemetry=self.telemetry)

    def sample(self, circuit: Circuit, shots: int, seed: Optional[int] = None):
        """Run and sample measurement outcomes (streamed, never dense)."""
        return self.run(circuit).sample(shots, seed=seed)

    def statevector(self, circuit: Circuit) -> np.ndarray:
        """Run and densify — convenience for tests and small circuits."""
        return self.run(circuit).statevector()

    def __repr__(self) -> str:
        return f"<MemQSim {self.config.summary()}>"
