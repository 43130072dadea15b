"""HTTP/JSON front-end for the job daemon (stdlib only).

A background :class:`~http.server.ThreadingHTTPServer` with silent
handlers and snapshot-under-lock reads, serving the job API:

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

This is the one HTTP server in the package: a run someone wants to watch
is a daemon job.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional
from urllib.parse import parse_qs, urlparse

from ..telemetry.live import PROMETHEUS_CONTENT_TYPE, render_prometheus
from .jobs import CANCELLED, DONE, FAILED, JobRejected
from .manager import ServeManager

__all__ = ["ServeServer", "DEFAULT_PORT"]

#: default service port
DEFAULT_PORT = 9645

#: request body cap — submissions are circuits, not datasets
MAX_BODY_BYTES = 8 << 20


class _Handler(BaseHTTPRequestHandler):
    """Routes the job API of a :class:`ServeServer`."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    # -- helpers -------------------------------------------------------------

    def log_message(self, fmt: str, *args: Any) -> None:
        pass  # stay silent; the process's own logging owns stderr

    def _send(self, body: bytes, content_type: str, status: int = 200) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: Any, status: int = 200) -> None:
        self._send(json.dumps(payload, default=str).encode(),
                   "application/json", status)

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
        return self.server.manager

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
        """SSE tail of the job's private bus; ``?max_seconds`` bounds it for
        finite reads, and it ends itself once the job has finished and a
        poll comes back empty."""
        tail = int(query.get("tail", ["25"])[0])
        max_seconds = float(query.get("max_seconds", ["0"])[0])
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        sub = job.telemetry.bus.subscribe(tail=tail)
        deadline = (time.monotonic() + max_seconds) if max_seconds > 0 else None
        while not self.server.stopping.is_set():
            events = sub.poll()
            for ev in events:
                self.wfile.write(b"data: " + ev.to_json().encode() + b"\n\n")
            if sub.missed:
                self.wfile.write(
                    f": missed {sub.missed} events (ring overflow)\n\n"
                    .encode())
                sub.missed = 0
            self.wfile.flush()
            if not events and job.finished:
                self.wfile.write(
                    f"event: done\ndata: {{\"state\": \"{job.state}\"}}\n\n"
                    .encode())
                self.wfile.flush()
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(0.1)


class ServeServer:
    """The daemon's HTTP server, bound to one :class:`ServeManager`, on a
    daemon thread.

    ``port=0`` binds an ephemeral port (tests/CI); the bound port is on
    ``.port`` after :meth:`start`. Server and handler threads are daemons,
    so a crashing process never hangs on a live SSE stream; :meth:`stop`
    shuts down cleanly and is idempotent.
    """

    def __init__(self, manager: ServeManager, port: int = DEFAULT_PORT,
                 host: str = "127.0.0.1"):
        self.manager = manager
        self.host = host
        self.port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServeServer":
        if self._httpd is not None:
            return self
        httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        httpd.daemon_threads = True
        httpd.manager = self.manager
        httpd.stopping = threading.Event()
        self.port = httpd.server_address[1]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-serve-http", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.stopping.set()
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)
