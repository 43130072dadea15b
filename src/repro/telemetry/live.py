"""Exposition layer: Prometheus text, progress JSON, and an SSE event tail.

:class:`TelemetryServer` is a stdlib-only background HTTP server (no
Flask, no prometheus_client) a run starts with ``--serve-metrics PORT``:

* ``GET /metrics`` — the run's :class:`~repro.telemetry.metrics
  .MetricsRegistry` rendered in Prometheus text exposition format 0.0.4
  (counters as ``_total``, gauges with ``_max`` twins, histograms as
  cumulative ``_bucket{le=...}`` series), plus derived gauges, progress
  gauges, event-bus counters, and process RSS;
* ``GET /progress`` — the full :func:`live_state` JSON payload (progress
  snapshot, derived gauges, recent monitor samples, event tail) — the one
  endpoint the remote ``repro top`` dashboard needs;
* ``GET /events`` — Server-Sent Events tail of the
  :class:`~repro.telemetry.events.EventBus` (``data: {json}\\n\\n`` per
  event; ``?tail=N`` backfills, ``?max_seconds=S`` bounds the stream so
  curl/CI can take a finite bite).

Everything is read-only and cheap: handlers snapshot under the bus/metrics
locks and never block the simulation threads.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional
from urllib.parse import parse_qs, urlparse

from .monitor import read_rss_bytes

__all__ = [
    "render_prometheus",
    "live_state",
    "JSONHandler",
    "BackgroundHTTPServer",
    "TelemetryServer",
    "DEFAULT_PORT",
    "PROMETHEUS_CONTENT_TYPE",
]

#: default exposition port (chosen off the common 9090..9400 exporter band)
DEFAULT_PORT = 9644

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    """``cache.hit`` → ``repro_cache_hit`` (Prometheus naming rules)."""
    mangled = _NAME_RE.sub("_", name)
    if mangled and mangled[0].isdigit():
        mangled = "_" + mangled
    return f"repro_{mangled}"


def _prom_value(v: float) -> str:
    if v != v:  # NaN
        return "NaN"
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def render_prometheus(telemetry) -> str:
    """The registry + live plane in Prometheus text exposition format."""
    lines: List[str] = []

    def emit(name: str, value: float, help_: str = "", kind: str = "",
             labels: str = "") -> None:
        if help_:
            lines.append(f"# HELP {name} {help_}")
        if kind:
            lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name}{labels} {_prom_value(value)}")

    m = telemetry.metrics
    for c in m.iter_counters():
        emit(_prom_name(c.name) + "_total", c.value,
             help_=f"counter {c.name}", kind="counter")
    for g in m.iter_gauges():
        name = _prom_name(g.name)
        emit(name, g.value, help_=f"gauge {g.name}", kind="gauge")
        emit(name + "_max", g.max_value)
    for h in m.iter_histograms():
        name = _prom_name(h.name)
        lines.append(f"# HELP {name} histogram {h.name}")
        lines.append(f"# TYPE {name} histogram")
        cum = 0
        for edge, count in zip(h.edges, h.counts):
            cum += count
            lines.append(f'{name}_bucket{{le="{_prom_value(edge)}"}} {cum}')
        cum += h.counts[-1]
        lines.append(f'{name}_bucket{{le="+Inf"}} {cum}')
        lines.append(f"{name}_sum {_prom_value(h.total)}")
        lines.append(f"{name}_count {h.count}")
    for dname, dval in telemetry.snapshot()["derived"].items():
        if dval is None:
            continue  # zero-denominator guard: skip rather than emit NaN
        emit(_prom_name(dname), dval, help_=f"derived gauge {dname}",
             kind="gauge")

    progress = getattr(telemetry, "progress", None)
    if progress is not None:
        snap = progress.snapshot()
        emit("repro_progress_fraction", snap["fraction"],
             help_="exact completed fraction of the compiled plan",
             kind="gauge")
        emit("repro_progress_done_units", snap["done_units"], kind="gauge")
        emit("repro_progress_total_units", snap["total_units"], kind="gauge")
        emit("repro_progress_groups_done", snap["groups_done"], kind="gauge")
        if snap["eta_seconds"] is not None:
            emit("repro_progress_eta_seconds", snap["eta_seconds"],
                 help_="schedule-derived remaining seconds", kind="gauge")
        if snap["rate_units_per_s"] is not None:
            emit("repro_progress_rate_units_per_second",
                 snap["rate_units_per_s"], kind="gauge")

    bus = getattr(telemetry, "bus", None)
    if bus is not None:
        emit("repro_events_published_total", bus.published,
             help_="telemetry events published to the bus", kind="counter")
        emit("repro_events_dropped_total", bus.dropped,
             help_="events overwritten by the bounded ring", kind="counter")

    emit("repro_process_rss_bytes", float(read_rss_bytes()),
         help_="process resident set size", kind="gauge")
    return "\n".join(lines) + "\n"


def live_state(telemetry, events_tail: int = 50,
               monitor_tail: int = 120) -> Dict[str, Any]:
    """One JSON-serializable snapshot of everything live.

    The local dashboard reads this straight off the Telemetry object; the
    HTTP ``/progress`` endpoint serves the same shape, so ``repro top``
    renders identically against either source.
    """
    progress = getattr(telemetry, "progress", None)
    bus = getattr(telemetry, "bus", None)
    monitor = getattr(telemetry, "monitor", None)
    samples = list(getattr(monitor, "samples", ()) or ())[-monitor_tail:]
    return {
        "time": time.time(),
        "progress": progress.snapshot() if progress is not None
        else {"enabled": False},
        "derived": telemetry.snapshot()["derived"],
        "monitor": {
            "running": bool(getattr(monitor, "running", False)),
            "samples": samples,
        },
        "events": {
            "published": getattr(bus, "published", 0),
            "dropped": getattr(bus, "dropped", 0),
            "tail": [ev.to_dict() for ev in bus.tail(events_tail)]
            if bus is not None else [],
        },
        "rss_bytes": read_rss_bytes(),
    }


class JSONHandler(BaseHTTPRequestHandler):
    """What both stdlib HTTP planes share: silent logging, one response
    writer, and the Server-Sent-Events loop over an event bus. Subclasses
    add routes and read their subject off ``self.server.owner``."""

    protocol_version = "HTTP/1.1"

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

    def _stream_events(self, bus, query: Dict[str, List[str]],
                       default_tail: int, done=lambda: None) -> None:
        """SSE tail of ``bus``; ``?max_seconds`` bounds it for finite reads.

        ``done()`` is asked whenever a poll comes back empty: once it
        returns a frame (bytes) the frame is written and the stream ends.
        """
        if bus is None:
            self._send_json({"error": "event bus disabled"}, 404)
            return
        tail = int(query.get("tail", [str(default_tail)])[0])
        max_seconds = float(query.get("max_seconds", ["0"])[0])
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        sub = bus.subscribe(tail=tail)
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
            last = None if events else done()
            if last is not None:
                self.wfile.write(last)
                self.wfile.flush()
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(0.1)


class _Handler(JSONHandler):
    """Routes /metrics, /progress, /events of a :class:`TelemetryServer`."""

    server_version = "repro-telemetry"

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        url = urlparse(self.path)
        telemetry = self.server.owner.telemetry
        try:
            if url.path == "/metrics":
                self._send(render_prometheus(telemetry).encode(),
                           PROMETHEUS_CONTENT_TYPE)
            elif url.path == "/progress":
                self._send_json(live_state(telemetry))
            elif url.path == "/events":
                self._stream_events(getattr(telemetry, "bus", None),
                                    parse_qs(url.query), default_tail=10)
            elif url.path == "/":
                self._send_json({
                    "service": "repro-telemetry",
                    "endpoints": ["/metrics", "/progress", "/events"],
                })
            else:
                self._send_json({"error": "not found"}, 404)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-write; nothing to clean up


class BackgroundHTTPServer:
    """A :class:`ThreadingHTTPServer` on a daemon thread.

    ``port=0`` binds an ephemeral port (tests/CI); the bound port is on
    ``.port`` after :meth:`start`. Server and handler threads are daemons,
    so a crashing process never hangs on a live SSE stream; :meth:`stop`
    shuts down cleanly. Handlers reach the instance as ``server.owner``.
    """

    handler: type = JSONHandler
    thread_name = "repro-http"

    def __init__(self, port: int, host: str = "127.0.0.1"):
        self.host = host
        self.port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self):
        if self._httpd is not None:
            return self
        httpd = ThreadingHTTPServer((self.host, self.port), self.handler)
        httpd.daemon_threads = True
        httpd.owner = self
        httpd.stopping = threading.Event()
        self.port = httpd.server_address[1]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name=self.thread_name, daemon=True)
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

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"<{type(self).__name__} {state} {self.url}>"


class TelemetryServer(BackgroundHTTPServer):
    """Background HTTP exposition for one run's Telemetry."""

    handler = _Handler
    thread_name = "repro-telemetry-http"

    def __init__(self, telemetry, port: int = DEFAULT_PORT,
                 host: str = "127.0.0.1"):
        super().__init__(port, host)
        self.telemetry = telemetry
