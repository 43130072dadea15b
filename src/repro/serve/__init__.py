"""Simulation-as-a-service: the persistent multi-tenant job daemon.

MEMQSim's pipeline is one-shot: build a simulator, run a circuit, tear
everything down. This package keeps the expensive parts alive across
submissions and shares them safely between concurrent tenants:

* :class:`ServeManager` — job queue with **shared-arena admission
  control** (lease ledger on one :class:`~repro.device.DeviceArena`;
  admitted jobs provably never OOM mid-run) and **fair round-robin
  arbitration** across tenants, plus an optional shared
  :class:`~repro.parallel.CodecWorkerPool`;
* :class:`PlanCache` (re-exported from :mod:`repro.core.plancache`, where
  every simulator gets a private one) — compiled plans keyed on (circuit
  shape, plan-affecting config knobs, resolved chunk size), one instance
  shared by all jobs: a repeat submission skips planning and compilation
  entirely, the same circuit with new angles only rebinds its template
  (``serve.plan_cache.{hit,rebind,miss}`` counters);
* :class:`ServeServer` — the stdlib HTTP/JSON API (submit, poll
  state/progress/ETA, stream per-job SSE events, fetch results, cancel)
  in the PR 6 :class:`~repro.telemetry.live.TelemetryServer` idiom;
* :class:`ServeClient` — the matching stdlib client (CLI, tests, CI).

Start a daemon with ``python -m repro serve --port 9645``; see
``docs/serve.md`` for the API reference and capacity model.
"""

from .client import ServeAPIError, ServeClient
from .jobs import Job, JobRejected, device_lease_amplitudes
from ..core.plancache import PlanCache
from .manager import ServeManager
from .server import DEFAULT_PORT, ServeServer

__all__ = [
    "DEFAULT_PORT",
    "Job",
    "JobRejected",
    "PlanCache",
    "ServeAPIError",
    "ServeClient",
    "ServeManager",
    "ServeServer",
    "device_lease_amplitudes",
]
