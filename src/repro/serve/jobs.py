"""Job model and submission parsing for the service plane.

A :class:`Job` is one tenant's simulation request moving through the
daemon: parsed circuit + resolved config, a state machine
(``queued → running → done|failed|cancelled``), a private
:class:`~repro.telemetry.Telemetry` object (own event bus + plan-aware
progress tracker — the per-job SSE stream and ETA come straight from
it), a :class:`~repro.pipeline.CancelToken`, and — once admitted — an
:class:`~repro.device.ArenaLease` on the shared device arena.

Submission payloads are plain JSON::

    {"workload": "qft", "qubits": 12,      # or "qasm": "<OpenQASM 2.0>"
     "tenant": "alice",                    # fairness domain (default "default")
     "shots": 1000, "seed": 7,             # optional sampling
     "config": {"compressor": "zlib", "chunk_qubits": 6, ...}}

Config overrides are whitelisted (:data:`CONFIG_OVERRIDES`): execution
knobs a tenant may choose. Device geometry is deliberately *not*
overridable — the daemon owns one shared arena and every job plans
against it, which is what makes the lease arithmetic sound.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Any, Dict, Optional

from ..circuits import from_qasm, get_workload
from ..circuits.circuit import Circuit
from ..compression import compressor_options
from ..core.config import MemQSimConfig
from ..memory.layout import ChunkLayout
from ..pipeline.cancel import CancelToken
from ..pipeline.planner import max_group_qubits_for
from ..telemetry import Telemetry

__all__ = [
    "Job",
    "JobRejected",
    "circuit_from_payload",
    "config_from_payload",
    "device_lease_amplitudes",
    "CONFIG_OVERRIDES",
]

#: job states (terminal: done / failed / cancelled)
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL = frozenset({DONE, FAILED, CANCELLED})

#: submission config keys a tenant may override, mapped to config fields.
#: ``error_bound`` routes into ``compressor_options``; ``fusion`` is the
#: CLI-friendly alias for ``fuse_gates`` (``null`` = follow the codec).
#: Device/host geometry and the store budgets are daemon-owned and absent
#: on purpose.
CONFIG_OVERRIDES = {
    "compressor": "compressor",
    "error_bound": None,  # -> compressor_options["error_bound"]
    "chunk_qubits": "chunk_qubits",
    "fusion": "fuse_gates",
    "fuse_gates": "fuse_gates",
    "cache_chunks": "cache_chunks",
    "cache_policy": "cache_policy",
    "workers": "workers",
}


class JobRejected(ValueError):
    """Submission refused at admission time (bad payload / can never fit).

    ``status`` is the HTTP status the API maps this refusal to: 400 for
    anything wrong with the submission itself, 503 when the daemon is
    draining and refuses all new work.
    """

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def circuit_from_payload(payload: Dict[str, Any]) -> Circuit:
    """Build the submitted circuit (named workload or inline QASM)."""
    qasm = payload.get("qasm")
    workload = payload.get("workload")
    if qasm and workload:
        raise JobRejected("pass workload or qasm, not both")
    if qasm:
        try:
            return from_qasm(qasm)
        except Exception as exc:  # parse errors -> 400, not a 500
            raise JobRejected(f"bad qasm: {exc}") from exc
    if not workload:
        raise JobRejected("submission needs a workload name or qasm text")
    qubits = int(payload.get("qubits", 12))
    try:
        return get_workload(str(workload), qubits)
    except Exception as exc:  # unknown name / bad qubit count -> 400
        raise JobRejected(f"bad workload: {exc}") from exc


def config_from_payload(base: MemQSimConfig,
                        payload: Dict[str, Any]) -> MemQSimConfig:
    """Apply whitelisted ``config`` overrides onto the daemon's base."""
    overrides = payload.get("config") or {}
    if not isinstance(overrides, dict):
        raise JobRejected("config must be a JSON object")
    unknown = sorted(set(overrides) - set(CONFIG_OVERRIDES))
    if unknown:
        raise JobRejected(
            f"unknown config override(s): {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(CONFIG_OVERRIDES))})")
    updates: Dict[str, Any] = {}
    for key, value in overrides.items():
        field = CONFIG_OVERRIDES[key]
        if field is not None:
            updates[field] = value
    if "error_bound" in overrides or "compressor" in overrides:
        # the codec and its options change in one update (a config built
        # between them would pair the new codec with the base's options);
        # the base's bound carries over only to a codec that takes one
        bound = overrides.get("error_bound",
                              base.compressor_options.get("error_bound"))
        try:
            updates["compressor_options"] = compressor_options(
                updates.get("compressor", base.compressor), bound)
        except ValueError as exc:  # unknown codec / bad bound -> 400
            raise JobRejected(str(exc)) from exc
    return base.with_updates(**updates) if updates else base


def device_lease_amplitudes(num_qubits: int, cfg: MemQSimConfig) -> int:
    """Worst-case simultaneous device demand of one run, in amplitudes.

    Per group pass the scheduler allocates exactly one device buffer of
    ``chunk_size << t`` amplitudes (freed in a ``finally``), and the
    planner caps ``t`` at :func:`max_group_qubits_for` — so this bound is
    tight and a lease of this size provably covers the whole run.
    """
    c = cfg.resolve_chunk_qubits(num_qubits)
    layout = ChunkLayout(num_qubits, c)
    t = max_group_qubits_for(layout, cfg.device)
    return layout.chunk_size << t


class Job:
    """One submission's full lifecycle state."""

    def __init__(self, circuit: Circuit, config: MemQSimConfig,
                 tenant: str = "default", shots: int = 0,
                 seed: Optional[int] = None):
        self.id = uuid.uuid4().hex[:12]
        self.tenant = tenant or "default"
        self.circuit = circuit
        self.config = config
        self.shots = int(shots)
        self.seed = seed
        self.state = QUEUED
        self.error: Optional[str] = None
        self.cancel = CancelToken()
        #: per-job telemetry: own event bus (SSE stream), own plan-aware
        #: progress tracker (fraction/ETA), own tracer — never shared, so
        #: one tenant's firehose cannot drown another's.
        self.telemetry = Telemetry()
        self.structural_hash = circuit.structural_hash()
        # plan_key() hashes the fuse_gates an unset one derives, so a
        # lossy tenant's fused plan and a lossless tenant's unfused one
        # never alias.
        self.plan_key = config.plan_key()
        self.lease_amplitudes = device_lease_amplitudes(
            circuit.num_qubits, config)
        self.lease = None  # ArenaLease once admitted
        self.result = None  # MemQSimResult once done
        self.counts: Optional[Dict[str, int]] = None
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._digest: Optional[str] = None
        self._digest_lock = threading.Lock()

    # -- views ---------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL

    def state_digest(self) -> Optional[str]:
        """sha256 over the final state's chunk stream (memoized)."""
        if self.result is None:
            return None
        with self._digest_lock:
            if self._digest is None:
                self._digest = self.result.state_digest()
            return self._digest

    def snapshot(self) -> Dict[str, Any]:
        """The JSON shape served by ``GET /jobs/{id}``."""
        progress = self.telemetry.progress
        snap: Dict[str, Any] = {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "circuit": {
                "name": getattr(self.circuit, "name", ""),
                "num_qubits": self.circuit.num_qubits,
                "gates": len(self.circuit),
            },
            "structural_hash": self.structural_hash,
            "plan_key": self.plan_key,
            "lease_amplitudes": self.lease_amplitudes,
            "lease_bytes": self.lease_amplitudes * 16,
            "shots": self.shots,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "progress": progress.snapshot() if progress is not None
            else {"enabled": False},
        }
        return snap

    def result_payload(self) -> Dict[str, Any]:
        """The JSON shape served by ``GET /jobs/{id}/result``."""
        if self.result is None:
            raise ValueError(f"job {self.id} has no result (state={self.state})")
        payload = {
            "job": self.snapshot(),
            "result": self.result.to_dict(include_metrics=False),
            "state_digest": self.state_digest(),
        }
        if self.counts is not None:
            payload["counts"] = self.counts
        return payload

    def __repr__(self) -> str:
        return (f"<Job {self.id} tenant={self.tenant} state={self.state} "
                f"n={self.circuit.num_qubits}>")
