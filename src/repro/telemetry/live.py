"""Prometheus text exposition of a telemetry's registry.

:func:`render_prometheus` renders a :class:`~repro.telemetry.metrics
.MetricsRegistry` in text exposition format 0.0.4 (counters as
``_total``, gauges with ``_max`` twins, histograms as cumulative
``_bucket{le=...}`` series), plus derived gauges, event-bus counters and
process RSS. The serve daemon's ``GET /metrics`` serves it
(:mod:`repro.serve.server`); a run's progress is served per job, by
``GET /jobs/{id}``.
"""

from __future__ import annotations

import math
import re
from typing import List

from .monitor import read_rss_bytes

__all__ = ["render_prometheus", "PROMETHEUS_CONTENT_TYPE"]

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
    """The registry, bus counters and RSS in Prometheus text format."""
    lines: List[str] = []

    def emit(name: str, value: float, help_: str = "",
             kind: str = "") -> None:
        if help_:
            lines.append(f"# HELP {name} {help_}")
        if kind:
            lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name} {_prom_value(value)}")

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

    bus = getattr(telemetry, "bus", None)
    if bus is not None:
        emit("repro_events_published_total", bus.published,
             help_="telemetry events published to the bus", kind="counter")
        emit("repro_events_dropped_total", bus.dropped,
             help_="events overwritten by the bounded ring", kind="counter")

    emit("repro_process_rss_bytes", float(read_rss_bytes()),
         help_="process resident set size", kind="gauge")
    return "\n".join(lines) + "\n"
