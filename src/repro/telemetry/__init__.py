"""Unified telemetry: tracing spans, a metrics registry, and logging.

One :class:`Telemetry` object bundles the observability sinks a run feeds:

* :class:`~repro.telemetry.tracer.Tracer` — nestable spans with
  Chrome-trace / Perfetto and JSONL export (``with tel.span("stage", ...)``);
* :class:`~repro.telemetry.metrics.MetricsRegistry` — named counters,
  gauges, and fixed-bucket histograms (``tel.metrics.counter(...)``);
* the live :class:`~repro.telemetry.events.EventBus`, the byte-exact
  :class:`~repro.telemetry.traffic.TrafficLedger` (a view of the attached
  timelines' rows) and, when a run attaches
  them, a progress tracker and a resource monitor;
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
  exports draw one span per row and whose ledger folds the rows' bytes.
  Nothing copies a hop as it happens.
  What the memory and codec-lane layers count, they keep themselves: the
  run hands them to :meth:`Telemetry.watch`, and the registry reads them.
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
from .traffic import TrafficLedger

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "PassObserver",
    "RunObserver",
    "NULL_OBSERVER",
    "TrafficLedger",
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
                 "progress", "traffic")

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
        #: byte-exact tier-edge movement ledger: a read-only fold over the
        #: rows of the timelines the tracer has attached
        self.traffic = TrafficLedger(self.tracer)
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

    def watch(self, *, tracker=None, store=None, cache=None, pool=None,
              lane=None) -> None:
        """Have the registry read these layers' own counts whenever it is
        read, from now on: a run's one collector (docs/telemetry.md names
        what each is read as). A store's header tally starts here.
        Nothing on a disabled telemetry."""
        if not self.enabled:
            return
        for source, read in (
                (tracker, _read_tracker),
                (None if store is None else store.tally_headers(),
                 _read_headers),
                (getattr(store, "tier_stats", None), _read_tiers),
                (getattr(cache, "cache_stats", None), _read_cache),
                (pool, _read_pool), (lane, _read_lane)):
            if source is not None:
                self.metrics.watch(source, read)

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Metrics snapshot plus span count — the report/JSON payload."""
        snap = self.metrics.snapshot(self.traffic)
        snap["spans"] = len(self.tracer)
        return snap

    def __repr__(self) -> str:
        if not self.enabled:
            return "<Telemetry off>"
        return f"<Telemetry on {self.tracer!r} {self.metrics!r}>"


def _read_tracker(t):
    return {}, {f"mem.{cat}.bytes": (t.current(cat), t.peak(cat))
                for cat in t.categories()}


def _read_headers(tally):
    """Blobs by the entropy stage (SZL1) or frame (lossless) their header
    bytes name; other codecs' blobs count for nothing."""
    # lazy: the codecs import this package
    from ..compression.lossless import blob_frame
    from ..compression.szlike import blob_entropy
    counts: Dict[str, int] = {}
    for head, n in list(tally.items()):
        stage, frame = blob_entropy(head), blob_frame(head)
        if stage is not None:
            name = f"codec.entropy_choice.{stage}"
        elif frame is not None:
            name = f"codec.lossless_frame.{frame}"
        else:
            continue
        counts[name] = counts.get(name, 0) + n
    return counts, {}


def _read_tiers(t):
    return {"tier.spill": t.spills, "tier.promote": t.promotions}, {}


def _read_cache(c):
    return {"cache.hit": c.hits, "cache.miss": c.misses,
            "cache.writeback": c.writebacks, "cache.eviction": c.evictions}, {}


def _read_pool(p):
    return ({"pool.acquire.count": p.acquisitions},
            {"pool.in_use": (p.in_use, p.peak_in_use)} if p.acquisitions
            else {})


def _read_lane(lane):
    gauges = {}
    if lane.peak_inflight:
        gauges["parallel.queue_depth"] = (lane.inflight, lane.peak_inflight)
    if lane.utilization is not None:
        gauges["parallel.worker.utilization"] = (lane.utilization,) * 2
    return {}, gauges


#: the one disabled object — the default everywhere telemetry is optional
NULL_TELEMETRY = Telemetry.disabled()
