"""HTTP/JSON front-end for the job daemon (stdlib only, PR 6 idiom).

Builds on the HTTP base in :mod:`repro.telemetry.live` — a background
:class:`~http.server.ThreadingHTTPServer`, silent handlers, the shared SSE
loop, snapshot-under-lock reads — and adds the job API:

* ``POST /jobs`` — submit ``{"workload"|"qasm", "qubits", "tenant",
  "shots", "seed", "config": {...}}``; returns ``202`` with the job
  snapshot (or ``400`` when rejected at admission).
* ``GET /jobs`` — every job, oldest first.
* ``GET /jobs/{id}`` — one job's state, progress fraction, and ETA.
* ``GET /jobs/{id}/events`` — Server-Sent Events from the *job's own*
  event bus (``?tail=N`` backfills, ``?max_seconds=S`` bounds the read);
  the stream closes itself once the job finishes and the bus drains.
* ``GET /jobs/{id}/result`` — the finished result document (``409`` while
  the job is still queued/running, ``410`` for failed/cancelled).
* ``DELETE /jobs/{id}`` — cancel (queued: immediate; running: at the next
  group-pass boundary).
* ``GET /metrics`` — the daemon's shared telemetry in Prometheus text
  format (``serve.*`` counters, shared-arena gauges, plan-cache stats).
* ``GET /`` and ``GET /healthz`` — service info / liveness.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List
from urllib.parse import parse_qs, urlparse

from ..telemetry.live import (
    PROMETHEUS_CONTENT_TYPE,
    BackgroundHTTPServer,
    JSONHandler,
    render_prometheus,
)
from .jobs import CANCELLED, DONE, FAILED, JobRejected
from .manager import ServeManager

__all__ = ["ServeServer", "DEFAULT_PORT"]

#: default service port (one above the telemetry exposition port)
DEFAULT_PORT = 9645

#: request body cap — submissions are circuits, not datasets
MAX_BODY_BYTES = 8 << 20


class _Handler(JSONHandler):
    """Routes the job API of a :class:`ServeServer`."""

    server_version = "repro-serve"

    # -- helpers -------------------------------------------------------------

    def _error(self, message: str, status: int) -> None:
        self._send_json({"error": message}, status)

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length <= 0:
            raise JobRejected("empty request body")
        if length > MAX_BODY_BYTES:
            raise JobRejected(f"request body over {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise JobRejected(f"invalid JSON: {exc}") from exc

    @property
    def manager(self) -> ServeManager:
        return self.server.owner.manager

    def _job_or_404(self, job_id: str):
        job = self.manager.get(job_id)
        if job is None:
            self._error(f"no such job: {job_id}", 404)
        return job

    # -- verbs ---------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        url = urlparse(self.path)
        try:
            if url.path == "/jobs":
                try:
                    job = self.manager.submit(self._read_body())
                except JobRejected as exc:
                    self._error(str(exc), exc.status)
                    return
                self._send_json({"job": job.snapshot()}, 202)
            else:
                self._error("not found", 404)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def do_DELETE(self) -> None:  # noqa: N802
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if len(parts) == 2 and parts[0] == "jobs":
                job = self._job_or_404(parts[1])
                if job is None:
                    return
                job = self.manager.cancel(job.id)
                self._send_json({"job": job.snapshot()})
            else:
                self._error("not found", 404)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def do_GET(self) -> None:  # noqa: N802
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if url.path == "/":
                info = self.manager.stats()
                info["service"] = "repro-serve"
                info["endpoints"] = [
                    "POST /jobs", "GET /jobs", "GET /jobs/{id}",
                    "GET /jobs/{id}/events", "GET /jobs/{id}/result",
                    "DELETE /jobs/{id}", "GET /metrics", "GET /healthz",
                ]
                self._send_json(info)
            elif url.path == "/healthz":
                self._send_json({"ok": True})
            elif url.path == "/metrics":
                self._send(render_prometheus(self.manager.telemetry).encode(),
                           PROMETHEUS_CONTENT_TYPE)
            elif url.path == "/jobs":
                self._send_json(
                    {"jobs": [j.snapshot() for j in self.manager.jobs()]})
            elif len(parts) == 2 and parts[0] == "jobs":
                job = self._job_or_404(parts[1])
                if job is not None:
                    self._send_json({"job": job.snapshot()})
            elif len(parts) == 3 and parts[0] == "jobs":
                job = self._job_or_404(parts[1])
                if job is None:
                    return
                if parts[2] == "result":
                    self._serve_result(job)
                elif parts[2] == "events":
                    self._serve_events(job, parse_qs(url.query))
                else:
                    self._error("not found", 404)
            else:
                self._error("not found", 404)
        except (BrokenPipeError, ConnectionResetError):
            pass

    # -- endpoint bodies -----------------------------------------------------

    def _serve_result(self, job) -> None:
        if job.state == DONE:
            self._send_json(job.result_payload())
        elif job.state in (FAILED, CANCELLED):
            self._send_json({"job": job.snapshot()}, 410)
        else:
            self._send_json({"job": job.snapshot(),
                             "error": f"job is {job.state}"}, 409)

    def _serve_events(self, job, query: Dict[str, List[str]]) -> None:
        """SSE tail of the job's private bus; self-terminating."""
        def done():
            if job.finished:
                return (f"event: done\ndata: {{\"state\": \"{job.state}\"}}"
                        "\n\n").encode()

        self._stream_events(job.telemetry.bus, query, default_tail=25,
                            done=done)


class ServeServer(BackgroundHTTPServer):
    """Background HTTP server bound to one :class:`ServeManager`."""

    handler = _Handler
    thread_name = "repro-serve-http"

    def __init__(self, manager: ServeManager, port: int = DEFAULT_PORT,
                 host: str = "127.0.0.1"):
        super().__init__(port, host)
        self.manager = manager
