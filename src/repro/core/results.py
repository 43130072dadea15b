"""Simulation results: the final (still-compressed) state plus statistics.

:class:`MemQSimResult` keeps the compressed chunk store alive, so queries
stream chunk-by-chunk and never materialize the dense vector unless
explicitly asked (``statevector()``). It also carries the complete timing /
memory / plan telemetry every benchmark consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..device.timeline import Stage, Timeline
from ..memory.accounting import MemoryTracker
from ..memory.chunkstore import CompressedChunkStore
from ..pipeline.planner import PlanReport
from ..pipeline.scheduler import SchedulerStats
from ..telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["MemQSimResult"]


@dataclass
class MemQSimResult:
    """Everything a MEMQSim run produced."""

    num_qubits: int
    store: CompressedChunkStore
    timeline: Timeline
    tracker: MemoryTracker
    plan: PlanReport
    scheduler_stats: SchedulerStats
    wall_seconds: float
    #: stopwatch time of the online stage (the scheduler's group loop,
    #: store flushed): what the hops took with whatever overlap the codec
    #: lane really achieved
    online_seconds: float
    config_summary: str = ""
    telemetry: Telemetry = field(default=NULL_TELEMETRY, repr=False)
    #: resolved-knob echo (workers, store, cache, ...) — the
    #: machine-readable companion to the ``config_summary`` string
    config_echo: Dict[str, Any] = field(default_factory=dict)
    #: gauge time-series captured by the run's ResourceMonitor (RSS, arena
    #: occupancy, cache hit rate, codec bytes); ``None`` unless the run
    #: had ``monitor_interval_ms > 0`` and telemetry enabled
    resource_timeline: Optional[Dict[str, Any]] = field(
        default=None, repr=False)
    #: the compile layer's :class:`~repro.compile.CompileReport` — gates in,
    #: ops out, per-pass fusion counts; ``None`` for results built outside
    #: :class:`~repro.core.memqsim.MemQSim` (e.g. hand-assembled in tests)
    compile_report: Optional[Any] = field(default=None, repr=False)
    #: the compiled stages the run executed, bound to its circuit's
    #: parameter values (what the audit replays); ``None`` as above
    compiled_stages: Optional[List[Any]] = field(default=None, repr=False)
    #: the run's id — the same value stamped on log records and live bus
    #: events, so post-hoc artifacts correlate with live observability
    run_id: str = ""
    #: the resolved amplitude precision the run executed at
    precision: str = "c128"
    #: the executed circuit, kept only when the run started from |0...0>
    #: (enables the small-n dense c128 fidelity oracle); ``None`` disables
    oracle_circuit: Optional[Any] = field(default=None, repr=False)
    #: cache for :meth:`precision_fidelity` (it streams the store)
    _fidelity: Optional[Dict[str, Any]] = field(default=None, repr=False)

    # -- state queries (streaming; never densify unless asked) ------------------

    def statevector(self) -> np.ndarray:
        """Materialize the dense state (exponential memory — small n only)."""
        return self.store.to_statevector()

    def chunk_probability_masses(self) -> np.ndarray:
        """Per-chunk total probability, one decompression pass."""
        masses = np.empty(self.store.layout.num_chunks, dtype=np.float64)
        for k in range(self.store.layout.num_chunks):
            chunk = self.store.load(k)
            masses[k] = float(np.sum(chunk.real**2 + chunk.imag**2))
        return masses

    def norm(self) -> float:
        return float(np.sqrt(self.chunk_probability_masses().sum()))

    def state_digest(self) -> str:
        """Hex sha256 over the exact amplitude bytes, chunk by chunk.

        Streams one decompression pass (never densifies the full vector),
        so it is usable at any qubit count. Two runs produce the same
        digest iff their final states are **bit-identical** — the
        ``run_equivalence``-grade check, as one cheap comparable string.
        The service plane uses it to prove concurrent shared-arena jobs
        match their solo-run results.
        """
        import hashlib

        h = hashlib.sha256()
        for k in range(self.store.layout.num_chunks):
            h.update(np.ascontiguousarray(
                self.store.load(k), dtype=np.complex128).tobytes())
        return h.hexdigest()

    def probability_of(self, index: int) -> float:
        c, o = self.store.layout.split(index)
        amp = self.store.load(c)[o]
        return float((amp * amp.conjugate()).real)

    def amplitude(self, index: int) -> complex:
        c, o = self.store.layout.split(index)
        return complex(self.store.load(c)[o])

    def sample(self, shots: int, seed: Optional[int] = None) -> Dict[str, int]:
        """Sample bitstrings without densifying: chunk CDF then offset CDF."""
        rng = np.random.default_rng(seed)
        masses = self.chunk_probability_masses()
        total = masses.sum()
        if total <= 0:
            raise ValueError("zero-norm state")
        per_chunk = rng.multinomial(shots, masses / total)
        n = self.num_qubits
        counts: Dict[str, int] = {}
        cq = self.store.layout.chunk_qubits
        for k in np.flatnonzero(per_chunk):
            chunk = self.store.load(int(k))
            p = chunk.real**2 + chunk.imag**2
            s = p.sum()
            if s <= 0:
                continue
            cdf = np.cumsum(p / s)
            cdf[-1] = 1.0
            draws = np.searchsorted(cdf, rng.random(int(per_chunk[k])), side="right")
            base = int(k) << cq
            for off in draws:
                key = format(base | int(off), f"0{n}b")
                counts[key] = counts.get(key, 0) + 1
        return counts

    def expectation_z(self, qubit: int) -> float:
        """⟨Z_qubit⟩ streamed over chunks."""
        lay = self.store.layout
        total = 0.0
        for k in range(lay.num_chunks):
            chunk = self.store.load(k)
            p = chunk.real**2 + chunk.imag**2
            if lay.is_local(qubit):
                view = p.reshape(-1, 2, 1 << qubit)
                total += view[:, 0, :].sum() - view[:, 1, :].sum()
            else:
                bit = (k >> (qubit - lay.chunk_qubits)) & 1
                total += -p.sum() if bit else p.sum()
        return float(total)

    def expectation_pauli(self, pauli: str,
                          qubits: Optional[List[int]] = None) -> float:
        """⟨P⟩ for an arbitrary Pauli string, streamed over chunk pairs.

        X/Y letters pair amplitude ``i`` with ``i ^ x_mask``; the global
        part of the mask pairs whole chunks, so each chunk loads together
        with its partner and the phase machinery shared with the dense
        implementation does the rest.
        """
        from ..statevector.pauli import parse_pauli, pauli_phase

        ps = parse_pauli(pauli, qubits)
        if ps.num_qubits > self.num_qubits:
            raise ValueError("Pauli string touches qubits outside the state")
        lay = self.store.layout
        cq = lay.chunk_qubits
        cs = lay.chunk_size
        local_x = ps.x_mask & (cs - 1)
        global_bits = ps.x_mask >> cq
        offs = np.arange(cs, dtype=np.uint64)
        total = 0.0 + 0.0j
        for k in range(lay.num_chunks):
            bra = self.store.load(k)
            partner = k ^ global_bits
            ket_chunk = bra if partner == k else self.store.load(partner)
            idx = offs | np.uint64(k << cq)
            ket = ket_chunk[offs ^ np.uint64(local_x)]
            total += np.sum(bra.conj() * pauli_phase(ps, idx) * ket)
        return float(total.real)

    def fidelity_vs(self, dense_state: np.ndarray) -> float:
        """The normalised overlap ``|<dense|self>|^2 / (<dense|dense>
        <self|self>)``, chunk-streamed against a dense vector.

        A lossy store's norm drifts from 1 (:meth:`norm`); both norms are
        accumulated in the same pass, so the value never exceeds 1 and
        equals ``compare_states(dense, self.statevector()).fidelity``.
        """
        lay = self.store.layout
        acc = 0.0 + 0.0j
        own = theirs = 0.0
        cs = lay.chunk_size
        for k in range(lay.num_chunks):
            chunk = self.store.load(k).astype(np.complex128, copy=False)
            ref = dense_state[k * cs:(k + 1) * cs]
            acc += np.vdot(ref, chunk)
            own += np.vdot(chunk, chunk).real
            theirs += np.vdot(ref, ref).real
        if own == 0.0 or theirs == 0.0:
            raise ValueError("zero-norm state")
        return float(abs(acc) ** 2 / (own * theirs))

    def measure_qubit(self, qubit: int,
                      rng: Optional[np.random.Generator] = None) -> int:
        """Projectively measure one qubit, collapsing the *compressed* state.

        Streams two passes over the store: one to accumulate P(qubit=1),
        one to collapse. For a **global** qubit the discarded branch is
        whole chunks, which are replaced by the interned zero blob with no
        codec work at all — the chunked layout makes global-qubit collapse
        nearly free. Returns the observed bit.
        """
        if rng is None:
            rng = np.random.default_rng()
        lay = self.store.layout
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        local = lay.is_local(qubit)
        gbit = 0 if local else qubit - lay.chunk_qubits
        # Pass 1: probability mass of the |1> branch.
        p1 = 0.0
        total = 0.0
        for k in range(lay.num_chunks):
            chunk = self.store.load(k)
            p = chunk.real**2 + chunk.imag**2
            total += float(p.sum())
            if local:
                view = p.reshape(-1, 2, 1 << qubit)
                p1 += float(view[:, 1, :].sum())
            elif (k >> gbit) & 1:
                p1 += float(p.sum())
        if total <= 0.0:
            raise ValueError("zero-norm state")
        prob_one = min(1.0, max(0.0, p1 / total))
        bit = 1 if rng.random() < prob_one else 0
        keep = prob_one if bit == 1 else 1.0 - prob_one
        if keep <= 0.0:
            bit = 1 - bit
            keep = 1.0 - keep
        scale = 1.0 / np.sqrt(keep * total)
        # Pass 2: collapse + renormalize.
        for k in range(lay.num_chunks):
            if not local:
                if ((k >> gbit) & 1) != bit:
                    self.store.zero_chunk(k)
                    continue
                chunk = self.store.load(k)
                chunk *= scale
                self.store.store(k, chunk)
                continue
            chunk = self.store.load(k)
            view = chunk.reshape(-1, 2, 1 << qubit)
            view[:, 1 - bit, :] = 0.0
            chunk *= scale
            self.store.store(k, chunk)
        return bit

    #: dense-oracle ceiling: 2^14 complex128 amplitudes = 256 KiB
    MAX_ORACLE_QUBITS = 14

    def precision_fidelity(self, max_oracle_qubits: int = MAX_ORACLE_QUBITS
                           ) -> Dict[str, Any]:
        """Tracked fidelity of the run's precision mode (computed once).

        Always reports the streamed norm and its drift from 1. For a
        reduced-precision run that started from |0...0> at small ``n``,
        also the measured state overlap ``|<psi_c128|psi>|^2`` against a
        dense complex128 oracle (``method="oracle"``); at larger ``n`` the
        analytic rounding bound stands in (``method="analytic-bound"``).
        Lazy by design: the extra store pass must not pollute the run's
        recorded access trace before a plan-vs-actual audit reads it.
        """
        if self._fidelity is not None:
            return self._fidelity
        from .precision import analytic_overlap_bound

        norm = self.norm()
        out: Dict[str, Any] = {
            "precision": self.precision,
            "norm": norm,
            "norm_drift": abs(1.0 - norm),
            "analytic_overlap_bound": analytic_overlap_bound(
                self.precision, self.scheduler_stats.gates_applied),
        }
        if self.precision == "c128":
            out["overlap"] = 1.0
            out["method"] = "exact"
        elif (self.oracle_circuit is not None
              and self.num_qubits <= max_oracle_qubits):
            from .backend import NumpyKernelBackend

            ref = np.zeros(1 << self.num_qubits, dtype=np.complex128)
            ref[0] = 1.0
            NumpyKernelBackend().apply(ref, list(self.oracle_circuit))
            out["overlap"] = self.fidelity_vs(ref)
            out["method"] = "oracle"
        else:
            out["overlap"] = None
            out["method"] = "analytic-bound"
        if self.telemetry.enabled:
            m = self.telemetry.metrics
            m.gauge("precision.norm_drift").set(out["norm_drift"])
            if out["overlap"] is not None:
                m.gauge("precision.overlap").set(out["overlap"])
        self._fidelity = out
        return out

    def save_state(self, path) -> int:
        """Checkpoint the compressed store to disk; returns bytes written.

        The file holds the blobs as-is (no densification); resume with
        ``MemQSim(...).run(next_circuit, checkpoint=path)``.
        """
        from ..memory.persist import save_store

        return save_store(self.store, path)

    # -- telemetry ---------------------------------------------------------------

    @property
    def serial_seconds(self) -> float:
        return self.timeline.serial_seconds()

    @property
    def stage_breakdown(self) -> Dict[str, float]:
        return self.timeline.stage_breakdown()

    @property
    def pipeline_speedup(self) -> float:
        """Measured overlap: the serial sum of the booked hops over the
        online stage's stopwatch time. Above 1 only when codec lanes really
        ran hops alongside the loop; at ``workers=1`` it is below 1, since
        the loop's own glue is in the stopwatch and in no hop."""
        if self.online_seconds <= 0:
            return 1.0
        return self.serial_seconds / self.online_seconds

    @property
    def compression_ratio(self) -> float:
        return self.store.compression_ratio()

    @property
    def peak_host_bytes(self) -> int:
        return (self.tracker.peak("chunk_store")
                + self.tracker.peak("host_buffers")
                + self.tracker.peak("chunk_cache"))

    @property
    def peak_device_bytes(self) -> int:
        return self.tracker.peak("device_arena")

    @property
    def dense_bytes(self) -> int:
        return MemoryTracker.dense_bytes(self.num_qubits)

    @property
    def qubit_headroom(self) -> float:
        """Extra qubits the same budget supports at the observed ratio."""
        ratio = self.compression_ratio
        if not math.isfinite(ratio) or ratio <= 0:
            return float("inf") if ratio > 0 else 0.0
        return math.log2(ratio)

    def _extra_qubits(self) -> float:
        """Qubit headroom from the *measured* peak store footprint."""
        ratio = self.tracker.effective_ratio(self.num_qubits)
        if not math.isfinite(ratio):
            return 0.0
        return MemoryTracker.extra_qubits_from_ratio(ratio) \
            if ratio > 0 else 0.0

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The attached telemetry's metrics snapshot (empty if disabled)."""
        return self.telemetry.snapshot() if self.telemetry.enabled else {}

    def to_dict(self, include_metrics: bool = True) -> Dict[str, Any]:
        """The full result as JSON-serializable plain data.

        Non-finite floats (e.g. an infinite compression ratio on an
        all-zero-delta store) become ``None`` so the payload is strict
        JSON.
        """
        def _num(x: float) -> Optional[float]:
            return x if math.isfinite(x) else None

        eff_ratio = self.tracker.effective_ratio(self.num_qubits)
        extra_q = (MemoryTracker.extra_qubits_from_ratio(eff_ratio)
                   if eff_ratio > 0 else 0.0)
        out: Dict[str, Any] = {
            "num_qubits": self.num_qubits,
            "run_id": self.run_id,
            "config": self.config_summary,
            "config_echo": dict(self.config_echo),
            "wall_seconds": self.wall_seconds,
            "serial_seconds": self.serial_seconds,
            "online_seconds": self.online_seconds,
            "pipeline_speedup": _num(self.pipeline_speedup),
            "stage_breakdown": self.stage_breakdown,
            "stage_event_counts": {
                st.value: c for st in Stage
                if (c := self.timeline.count(st))
            },
            "compression_ratio": _num(self.compression_ratio),
            "qubit_headroom": _num(self.qubit_headroom),
            "precision_fidelity": self.precision_fidelity(),
            "memory": {
                "peaks": {cat: self.tracker.peak(cat)
                          for cat in self.tracker.categories()},
                "peak_host_bytes": self.peak_host_bytes,
                "peak_device_bytes": self.peak_device_bytes,
                "total_peak_bytes": self.tracker.total_peak(),
                "dense_bytes": self.dense_bytes,
                # dense footprint over the *store's* peak (what the run
                # actually held resident), vs compression_ratio's
                # raw-vs-compressed blob accounting
                "effective_ratio": _num(eff_ratio),
                "extra_qubits_from_ratio": _num(extra_q),
                "effective_qubits": _num(self.num_qubits + extra_q),
            },
            "plan": {
                "num_stages": self.plan.num_stages,
                "num_local_stages": self.plan.num_local_stages,
                "num_permutation_stages": self.plan.num_permutation_stages,
                # executed; the full sweep is this plus the skipped ones
                "group_passes": self.plan.group_passes,
                "group_passes_skipped":
                    self.scheduler_stats.group_passes_skipped,
                "max_group_size": self.plan.max_group_size,
            },
            "scheduler": {
                "group_passes": self.scheduler_stats.group_passes,
                "group_passes_skipped":
                    self.scheduler_stats.group_passes_skipped,
                "permutation_stages": self.scheduler_stats.permutation_stages,
                "gates_applied": self.scheduler_stats.gates_applied,
                "gates_skipped_identity":
                    self.scheduler_stats.gates_skipped_identity,
            },
        }
        if self.compile_report is not None:
            out["compile"] = self.compile_report.to_dict()
        if self.telemetry.enabled:
            out["traffic"] = self.telemetry.traffic.to_dict()
        if include_metrics and self.telemetry.enabled:
            out["metrics"] = self.metrics_snapshot()
        if self.resource_timeline is not None:
            out["resource_timeline"] = self.resource_timeline
        return out

    def report(self) -> str:
        bd = self.stage_breakdown
        lines = [
            f"MEMQSim result: n={self.num_qubits}  [{self.config_summary}]",
            f"  wall time          {self.wall_seconds * 1e3:10.2f} ms",
            f"  serial stage sum   {self.serial_seconds * 1e3:10.2f} ms",
            f"  online (stopwatch) {self.online_seconds * 1e3:10.2f} ms "
            f"({self.pipeline_speedup:.2f}x measured overlap)",
            "  stage breakdown:",
        ]
        for stage, secs in sorted(bd.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {stage:<12} {secs * 1e3:10.2f} ms")
        lines += [
            f"  store ratio        {self.compression_ratio:10.2f}x "
            f"(qubit headroom {np.log2(max(self.compression_ratio, 1e-12)):.1f})",
            f"  peak host bytes    {self.peak_host_bytes:>14,} "
            f"(dense would be {self.dense_bytes:,})",
            f"  peak device bytes  {self.peak_device_bytes:>14,}",
            f"  effective qubits   {self.num_qubits} + "
            f"{self._extra_qubits():.1f} from the measured store footprint",
            f"  plan: {self.plan.num_stages} stages "
            f"({self.plan.num_local_stages} local, "
            f"{self.plan.num_permutation_stages} permutation), "
            f"{self.plan.group_passes} group passes run, "
            f"{self.scheduler_stats.group_passes_skipped} all-zero groups "
            f"skipped",
            f"  scheduler: {self.scheduler_stats.gates_applied} gates applied, "
            f"{self.scheduler_stats.gates_skipped_identity} identity-skipped",
        ]
        if self.compile_report is not None:
            cr = self.compile_report
            lines.append(
                f"  compile: {cr.gates_in} gates -> {cr.ops_out} ops "
                f"({cr.fusion_ratio:.2f}x, fusion="
                f"{'on' if cr.fusion_enabled else 'off'})"
            )
            if cr.swaps_hoisted:
                lines.append(
                    f"  hoisted: {cr.swaps_hoisted} swaps left the circuit as "
                    f"the front permutation {list(cr.front_permutation)}, "
                    f"which |0...0> absorbs")
            if cr.plan_direction == "backward":
                lines.append(
                    "  planned backward: the plan ends at the identity qubit "
                    "map with no restore sweeps, from a start map |0...0> "
                    "absorbs")
        if self.precision != "c128":
            fid = self.precision_fidelity()
            overlap = fid["overlap"]
            lines.append(
                f"  precision: {self.precision}  norm drift "
                f"{fid['norm_drift']:.2e}  overlap "
                + (f"{overlap:.9f} ({fid['method']})" if overlap is not None
                   else f">= {fid['analytic_overlap_bound']:.6f} "
                        f"(analytic bound)")
            )
        if self.telemetry.enabled:
            snap = self.metrics_snapshot()
            counters = snap.get("counters", {})
            lines.append(
                f"  telemetry: {snap.get('spans', 0)} spans, "
                f"{sum(1 for v in counters.values() if v)} active counters"
            )
            for name in ("cache.hit", "cache.miss"):
                if counters.get(name):
                    lines.append(f"    {name:<20} {counters[name]:>14,}")
            totals = self.telemetry.traffic.totals()
            if totals:
                moved = sum(v["bytes"] for v in totals.values())
                lines.append(f"  traffic ledger: {moved:,} bytes across "
                             f"{len(totals)} tier edges")
                for edge, v in totals.items():
                    lines.append(f"    {edge:<22} {v['bytes']:>14,} B "
                                 f"({v['ops']:,} ops)")
        return "\n".join(lines)
