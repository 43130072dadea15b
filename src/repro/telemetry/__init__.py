"""Unified telemetry: tracing spans, a metrics registry, and logging.

One :class:`Telemetry` object bundles the observability sinks a run feeds:

* :class:`~repro.telemetry.tracer.Tracer` — nestable spans with
  Chrome-trace / Perfetto and JSONL export (``with tel.span("stage", ...)``);
* :class:`~repro.telemetry.metrics.MetricsRegistry` — named counters,
  gauges, and fixed-bucket histograms (``tel.metrics.counter(...)``);
* the live :class:`~repro.telemetry.events.EventBus`, the byte-exact
  :class:`~repro.telemetry.traffic.TrafficLedger` and, when a run attaches
  them, an access recorder, a progress tracker and a resource monitor;
* the ``repro`` logger hierarchy (:mod:`repro.telemetry.logutil`).

**Off is one thing.** ``Telemetry.disabled()`` (shared as
:data:`NULL_TELEMETRY`, the default everywhere) holds no sinks at all, and
every call site guards on ``tel.enabled`` — the same guard that keeps
attribute dicts and format strings from being built for nobody. A sink
touched on a disabled object raises instead of pretending: there are no
null twins to keep in step with the real classes.

The two seams a run reports through:

* the group loop talks to a :class:`~repro.telemetry.observer.PassObserver`
  (:meth:`Telemetry.observer`; :data:`NULL_OBSERVER` when disabled);
* every pipeline hop — decompress / H2D / kernel / D2H / compress / CPU
  update — is timed once by the layer that runs it and booked once, as a
  row of the run's :class:`~repro.device.timeline.Timeline`, on or off;
  an enabled run attaches it to the tracer (:meth:`Tracer.attach`), whose
  exports draw one span per row. Nothing copies a hop as it happens.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Union

from .events import (
    DEFAULT_BUS_CAPACITY,
    EventBus,
    Subscription,
    TelemetryEvent,
)
from .logutil import (
    configure_logging,
    current_run_id,
    get_logger,
    log,
    set_run_id,
)
from .metrics import (
    DEFAULT_BYTES_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)
from .monitor import ResourceMonitor
from .observer import NULL_OBSERVER, PassObserver, RunObserver
from .progress import ProgressTracker, StageProgress
from .tracer import Span, Tracer
from .traffic import ChunkAccessRecorder, TrafficLedger

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "PassObserver",
    "RunObserver",
    "NULL_OBSERVER",
    "TrafficLedger",
    "ChunkAccessRecorder",
    "Tracer",
    "Span",
    "ResourceMonitor",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_BYTES_BUCKETS",
    "TelemetryEvent",
    "EventBus",
    "Subscription",
    "DEFAULT_BUS_CAPACITY",
    "ProgressTracker",
    "StageProgress",
    "log",
    "get_logger",
    "configure_logging",
    "set_run_id",
    "current_run_id",
]


class Telemetry:
    """Tracer + metrics + bus + ledger, threaded through the whole pipeline."""

    __slots__ = ("tracer", "metrics", "log", "enabled", "monitor", "bus",
                 "progress", "traffic", "access")

    def __init__(self, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 enabled: bool = True,
                 bus: Union[EventBus, None, bool] = None):
        """``bus=False`` builds a telemetry without the live event bus
        (tracer + metrics + ledger only: :meth:`emit` goes nowhere);
        ``None`` builds the default bus."""
        self.enabled = bool(enabled)
        self.log = log
        if not self.enabled:
            return  # no sinks: see __getattr__
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.declare_standard()
        #: the live event bus (``None`` = built without one), sharing the
        #: tracer's clock so event timestamps and span timestamps sit on
        #: one axis (the epoch is captured once — no per-publish attribute
        #: chain)
        if bus is None:
            epoch = self.tracer._epoch
            bus = EventBus(clock=lambda: time.perf_counter() - epoch)
        self.bus: Optional[EventBus] = None if bus is False else bus
        #: byte-exact tier-edge movement ledger over the store's whole
        #: lifetime; feeds the ``traffic.*`` counters
        self.traffic = TrafficLedger(self.metrics)
        #: opt-in chunk access-sequence recorder (``run --mem-trace-out``,
        #: ``repro memtrace`` / ``repro audit`` attach one); ``None`` = off
        self.access: Optional[ChunkAccessRecorder] = None
        #: the active run's ResourceMonitor; attached by MemQSim for the
        #: duration of a monitored run (the run's observer samples it)
        self.monitor: Optional[ResourceMonitor] = None
        #: the latest run's plan-aware ProgressTracker; attached by MemQSim
        #: once the CompiledPlan exists (total work is then known)
        self.progress: Optional[ProgressTracker] = None

    def __getattr__(self, name: str):
        # Reached only for a slot that was never set, i.e. a sink of a
        # disabled telemetry.
        raise AttributeError(
            f"telemetry is disabled: it has no {name!r} (guard the call "
            f"site with `if tel.enabled:`)")

    @classmethod
    def disabled(cls) -> "Telemetry":
        """A telemetry with no sinks (see also :data:`NULL_TELEMETRY`)."""
        return cls(enabled=False)

    # -- tracer conveniences -------------------------------------------------

    def span(self, name: str, **args):
        """Open a nested span on the tracer."""
        return self.tracer.span(name, **args)

    # -- event-bus convenience -----------------------------------------------

    def emit(self, kind: str, /, **data) -> None:
        """Publish one event onto the live bus (dropped when this telemetry
        was built without one).

        ``kind`` is positional-only so event payloads may themselves carry
        a ``kind`` key (e.g. ``emit("stage.start", kind="gate")``).
        """
        if self.bus is not None:
            self.bus.publish(kind, **data)

    # -- the two seams of a run ----------------------------------------------

    def observer(self) -> PassObserver:
        """What the run's group loop reports to: a :class:`RunObserver`
        over the sinks attached right now, :data:`NULL_OBSERVER` when
        disabled."""
        return RunObserver(self) if self.enabled else NULL_OBSERVER

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Metrics snapshot plus span count — the report/JSON payload."""
        snap = self.metrics.snapshot(self.tracer.decoded())
        snap["spans"] = len(self.tracer)
        return snap

    def __repr__(self) -> str:
        if not self.enabled:
            return "<Telemetry off>"
        return f"<Telemetry on {self.tracer!r} {self.metrics!r}>"


#: the one disabled object — the default everywhere telemetry is optional
NULL_TELEMETRY = Telemetry.disabled()
