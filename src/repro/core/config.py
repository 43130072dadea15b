"""MEMQSim configuration.

One frozen dataclass gathers every knob the system exposes; everything has
a sensible default so ``MemQSim()`` works out of the box. The config also
hosts the *auto* policies: chunk-size selection against the device spec,
derived pool sizing and fusion derived from the codec.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..compression.interface import Compressor, get_compressor
from ..device.spec import DeviceSpec, HostSpec
from .precision import validate_precision

__all__ = ["MemQSimConfig", "AUTO_MIN_CHUNKS", "AUTO_MAX_CHUNK_QUBITS"]

#: auto chunk sizing keeps at least this many chunks ...
AUTO_MIN_CHUNKS = 4
#: ... and caps a chunk at this many qubits (keeps codec latency sane)
AUTO_MAX_CHUNK_QUBITS = 14


@dataclass(frozen=True)
class MemQSimConfig:
    """All MEMQSim knobs.

    Attributes:
        chunk_qubits: amplitudes per chunk = ``2^chunk_qubits``; 0 = auto
            (largest chunk that still leaves >= :data:`AUTO_MIN_CHUNKS`
            chunks, fits the device double-buffered and has at most
            :data:`AUTO_MAX_CHUNK_QUBITS` qubits).
        compressor: registry name of the chunk codec.
        compressor_options: kwargs for the codec factory:
            ``{"error_bound": 1e-5}`` for ``szlike``, ``{}`` for the
            lossless codecs (:func:`~repro.compression.compressor_options`
            builds them). Any other key, and an unknown codec, is refused
            when the config is built.
        device: simulated accelerator spec (capacity enforced).
        host: simulated host spec (its memory budget is enforced).
        enable_permutation_stages: execute global X/SWAP as blob relabeling.
        precision: amplitude precision — ``"c128"`` (default, complex128
            everywhere), ``"c64"`` (complex64 everywhere: half the bytes
            on every tier edge), ``"mixed"`` (complex64 at rest on every
            tier edge, complex128 accumulation inside the kernels); any
            other value is refused when the config is built.
            Plan-relevant: the element size changes what fits the device,
            so it participates in :meth:`plan_key`.
        fuse_gates: run the gate-fusion compile passes (1q folding,
            diagonal merging, window fusion) when lowering the plan; off
            still compiles, 1:1 gate-to-op. ``None`` (default) derives it
            from the codec: on when ``make_compressor().is_lossy`` — such a
            run already differs from dense by the error bound at every
            stage, so fewer, fatter ops cost nothing — off when it is
            lossless, which keeps the run bit-identical to
            :class:`~repro.statevector.DenseSimulator`.
            :meth:`resolve_fuse_gates` is that rule; a run and
            :meth:`plan_key` read the value it returns.
        cache_chunks: if > 0, keep this many decompressed chunks resident
            in a write-back cache (design challenge 3 — data locality);
            hits skip the codec entirely.
        cache_policy: eviction policy — ``"mru"`` (right for cyclic
            sweeps), ``"lru"``, or ``"belady"`` (plan-optimal: evict the
            chunk whose next use in the compiled schedule is farthest
            away; falls back to MRU for off-schedule accesses).
        host_store_mb: RAM budget (MiB) for compressed blobs. 0 (default)
            with no ``disk_path`` keeps every blob in RAM
            (:class:`~repro.memory.CompressedChunkStore`); > 0 runs the
            :class:`~repro.memory.TieredChunkStore` — hot blobs in RAM
            under the budget, plan-coldest blobs spilled to an append log.
        disk_path: log file for the tiered store; setting it selects the
            tiered store too, so ``disk_path`` alone (budget 0) is the
            out-of-core configuration: every blob lives in the log and
            RAM holds only the chunk index. Never deleted by the run.
            Default: a temp file the store creates and removes.
        workers: codec lane threads. ``1`` (default) = no lane, the
            codec runs inline; ``>1`` = the run's own thread pool behind
            the chunk store, compress/decompress overlapping the kernels;
            ``0`` = auto (empirical probe: spare cores and a codec-bound
            chunk size, else 1). An external ``MemQSim(codec_pool=...)``
            is used whatever this says.
        monitor_interval_ms: if > 0 (and telemetry is enabled), run a
            :class:`~repro.telemetry.monitor.ResourceMonitor` sampling
            thread at this period for the duration of the run; its gauge
            time-series lands in the trace (counter events) and in
            ``MemQSimResult.to_dict()["resource_timeline"]``. 0 (default)
            keeps the allocation-free null monitor.
    """

    chunk_qubits: int = 0
    compressor: str = "szlike"
    compressor_options: Dict[str, object] = field(default_factory=dict)
    device: DeviceSpec = field(default_factory=DeviceSpec)
    host: HostSpec = field(default_factory=HostSpec)
    enable_permutation_stages: bool = True
    precision: str = "c128"
    fuse_gates: Optional[bool] = None
    cache_chunks: int = 0
    cache_policy: str = "mru"
    disk_path: Optional[str] = None
    host_store_mb: float = 0.0
    workers: int = 1
    monitor_interval_ms: float = 0.0

    def __post_init__(self):
        validate_precision(self.precision)
        self.make_compressor()  # an unknown codec or option fails here

    def make_compressor(self) -> Compressor:
        return get_compressor(self.compressor, **self.compressor_options)

    def resolve_fuse_gates(self) -> bool:
        """The effective ``fuse_gates``: as named, else the codec's
        ``is_lossy``. Read on demand, never stored, so a
        :meth:`with_updates` that swaps the codec derives afresh."""
        if self.fuse_gates is not None:
            return self.fuse_gates
        return self.make_compressor().is_lossy

    def storage_dtype(self):
        """The at-rest amplitude dtype for this precision."""
        from .precision import storage_dtype

        return storage_dtype(self.precision)

    def storage_itemsize(self) -> int:
        """Bytes per amplitude at rest (16 for c128, 8 for c64/mixed)."""
        from .precision import storage_itemsize

        return storage_itemsize(self.precision)

    def resolve_workers(self, chunk_size: int = 0) -> int:
        """The effective codec worker count (``workers=0`` probes)."""
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.workers:
            return self.workers
        from ..parallel.pool import auto_workers

        return auto_workers(self.make_compressor(),
                            chunk_size or (1 << 12))

    def resolve_chunk_qubits(self, num_qubits: int) -> int:
        """Pick the chunk size for an ``num_qubits``-qubit run."""
        if self.chunk_qubits:
            if self.chunk_qubits > num_qubits:
                raise ValueError(
                    f"chunk_qubits {self.chunk_qubits} > circuit qubits {num_qubits}"
                )
            return self.chunk_qubits
        # Auto: as large as possible subject to (a) >= AUTO_MIN_CHUNKS
        # chunks, (b) double-buffered group-of-2 fits the device, (c) the cap.
        import math

        by_chunks = num_qubits - max(1, int(math.log2(AUTO_MIN_CHUNKS)))
        dev_amps = self.device.memory_bytes // self.storage_itemsize()
        by_device = max(1, int(math.log2(max(2, dev_amps))) - 2)  # 2 bufs x group-of-2
        c = min(by_chunks, by_device, AUTO_MAX_CHUNK_QUBITS)
        return max(1, c)

    def with_updates(self, **kwargs) -> "MemQSimConfig":
        """Functional update helper (configs are frozen)."""
        return replace(self, **kwargs)

    #: the knobs whose values change what :func:`repro.pipeline.plan_stages`
    #: and :func:`repro.compile.compile_stages` produce. Everything else
    #: (codec, workers, caching, monitoring) affects how
    #: a plan is *executed*, never the plan itself.
    PLAN_KNOBS = (
        "chunk_qubits",
        "enable_permutation_stages",
        "fuse_gates",
        "precision",
    )

    def plan_key(self) -> str:
        """Hash (hex sha256) of only the knobs that affect lowering.

        Combined with :meth:`~repro.circuits.circuit.Circuit
        .structural_hash`, this keys a compiled-plan cache: two configs
        with equal ``plan_key()`` resolve the same layout, stage split,
        and fused op stream for any given circuit. Device memory
        participates because it bounds the chunk size and the group width
        (``max_group_qubits_for``); execution-only knobs
        (codec, workers, cache, monitor) deliberately do not.
        Precision participates because the amplitude itemsize changes
        what fits the device. An unset ``fuse_gates`` is hashed as
        :meth:`resolve_fuse_gates` derives it, so a lossy tenant's fused
        plan and a lossless tenant's unfused one never alias.
        """
        import hashlib

        values = {k: getattr(self, k) for k in self.PLAN_KNOBS}
        values["fuse_gates"] = self.resolve_fuse_gates()
        fields = [f"{k}={v!r}" for k, v in values.items()]
        fields.append(f"device_bytes={self.device.memory_bytes}")
        # The staging buffers are two, a constant; the payload keeps the
        # element a buffer count wrote, so every stored key still matches.
        fields.append("double_buffer=True")
        payload = "repro.plan/v1|" + "|".join(fields)
        return hashlib.sha256(payload.encode()).hexdigest()

    def summary(self) -> str:
        co = ", ".join(f"{k}={v}" for k, v in sorted(self.compressor_options.items()))
        return (
            f"chunk_qubits={self.chunk_qubits or 'auto'} "
            f"precision={self.precision} "
            f"compressor={self.compressor}({co}) "
            f"device={self.device.memory_bytes // (1 << 20)}MiB "
            f"workers={self.workers or 'auto'}"
        )
