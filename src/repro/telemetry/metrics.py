"""Named counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is a flat namespace of instruments: counts no
traffic ledger holds. Instruments are created lazily on first use and keep
accumulating for the registry's lifetime; :meth:`MetricsRegistry.snapshot`
returns a plain-dict view suitable for JSON export or report sections.
A run writes its own numbers (``run.*``, ``compile.*``) once; what the
memory and codec-lane layers count stays in the layer, and every read of
the registry folds in the sources it watches (:meth:`MetricsRegistry.watch`).

Call sites guard on ``telemetry.enabled``: a disabled telemetry holds no
registry.
"""

from __future__ import annotations

import bisect
import json
import math
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_BYTES_BUCKETS",
]

#: log-scale bucket upper bounds for durations in seconds (1us .. 10s)
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

#: power-of-16 bucket upper bounds for byte sizes (16B .. 16GiB)
DEFAULT_BYTES_BUCKETS: Tuple[float, ...] = tuple(
    float(16 << (4 * i)) for i in range(9)
)


class Counter:
    """Monotonically increasing count (events, bytes, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n

    def snapshot(self):
        return self.value

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """Point-in-time value (bytes resident, buffers in use, ...)."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.max_value = 0.0

    def set(self, v: float) -> None:
        self.value = v
        if v > self.max_value:
            self.max_value = v

    def add(self, d: float) -> None:
        self.set(self.value + d)

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value, "max": self.max_value}

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value} max={self.max_value}>"


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``edges`` are ascending bucket *upper bounds*; an implicit +Inf bucket
    catches everything above the last edge. ``observe(v)`` increments the
    first bucket whose upper bound is >= v (standard Prometheus-style
    cumulative-le semantics, stored non-cumulatively).
    """

    __slots__ = ("name", "edges", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, edges: Sequence[float] = DEFAULT_SECONDS_BUCKETS):
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise ValueError("need at least one bucket edge")
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError("bucket edges must be strictly ascending")
        self.name = name
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)  # last = +Inf overflow
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, v: float) -> None:
        self.counts[bisect.bisect_left(self.edges, v)] += 1
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bucket_labels(self) -> List[str]:
        return [f"<={e:g}" for e in self.edges] + ["+Inf"]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": dict(zip(self.bucket_labels(), self.counts)),
        }

    def __repr__(self) -> str:
        return (f"<Histogram {self.name} count={self.count} "
                f"mean={self.mean:g}>")


class Timer:
    """Context manager observing elapsed seconds into a histogram."""

    __slots__ = ("hist", "seconds", "_t0")

    def __init__(self, hist: Histogram):
        self.hist = hist
        self.seconds = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._t0
        self.hist.observe(self.seconds)
        return False


#: id of a watched source -> the registry that reads it (which holds the
#: source, so the id is not reused while the entry lives)
_OWNERS: "weakref.WeakValueDictionary[int, MetricsRegistry]" = \
    weakref.WeakValueDictionary()


class MetricsRegistry:
    """Lazily-created named instruments + snapshot/JSON export."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # id(source) -> [source, read, counts folded, gauge values folded]
        self._watched: Dict[int, list] = {}
        self._fold_lock = threading.Lock()

    # -- read-time sources ------------------------------------------------------

    def watch(self, source, read: Callable) -> None:
        """Fold ``read(source)`` — ``({counter: count}, {gauge: (value,
        peak)})`` — into this registry at every read from now on; counters
        by their growth from here. A source already watched is read once;
        one another registry watched is folded there a last time and read
        here from now on."""
        owner = _OWNERS.get(id(source))
        if owner is not None and owner is not self:
            owner._fold()
            with owner._fold_lock:
                owner._watched.pop(id(source), None)
        with self._fold_lock:
            if id(source) in self._watched:
                return
            self._watched[id(source)] = [source, read,
                                         dict(read(source)[0]), {}]
        _OWNERS[id(source)] = self

    def _fold(self) -> None:
        """Bring the watched counts in: a counter is made once its source
        has counted past the watch; a gauge takes a source's value when it
        moved since the last fold (the source that moved last shows)."""
        if not self._watched:
            return
        counters, gauges = self._counters, self._gauges
        with self._fold_lock:
            for source, read, counted, shown in self._watched.values():
                now, levels = read(source)
                for name, value in now.items():
                    grown = value - counted.get(name, 0)
                    if grown:
                        counted[name] = value
                        c = counters.get(name)
                        if c is None:
                            c = counters[name] = Counter(name)
                        c.value += grown
                for name, (value, peak) in levels.items():
                    g = gauges.get(name)
                    if g is None:
                        g = gauges[name] = Gauge(name)
                    if shown.get(name) != value:
                        shown[name] = g.value = value
                    if peak > g.max_value:
                        g.max_value = peak

    # -- instrument access (get-or-create) --------------------------------------

    def counter(self, name: str) -> Counter:
        self._fold()
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        self._fold()
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str,
                  edges: Sequence[float] = DEFAULT_SECONDS_BUCKETS) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, edges)
        return h

    def timer(self, name: str,
              edges: Sequence[float] = DEFAULT_SECONDS_BUCKETS) -> Timer:
        return Timer(self.histogram(name, edges))

    def declare_standard(self) -> None:
        """Pre-register the pipeline's standard instruments at zero.

        Run metrics snapshots then always contain the cache and buffer-pool
        instruments, even when a run never touches them.
        """
        for name in ("cache.hit", "cache.miss", "cache.writeback",
                     "cache.eviction", "pool.acquire.count"):
            self.counter(name)
        for name in ("parallel.queue_depth", "parallel.worker.utilization"):
            self.gauge(name)

    # -- iteration (exposition layer) ----------------------------------------

    def iter_counters(self) -> List[Counter]:
        """All counters, name-sorted (the /metrics render order)."""
        self._fold()
        return [c for _, c in sorted(self._counters.items())]

    def iter_gauges(self) -> List[Gauge]:
        self._fold()
        return [g for _, g in sorted(self._gauges.items())]

    def iter_histograms(self) -> List[Histogram]:
        return [h for _, h in sorted(self._histograms.items())]

    # -- export -------------------------------------------------------------------

    def derived_gauges(self, traffic=None) -> Dict[str, Optional[float]]:
        """Gauges computed from the raw counters and ``traffic`` (a
        :class:`~repro.telemetry.TrafficLedger`), so consumers stop
        re-deriving them by hand: ``cache.hit_rate``,
        ``codec.compression_ratio`` (ledger codec bytes in over out) and
        ``codec.decode_bytes_per_s`` (bytes over seconds of the decompress
        rows); ``None`` while a denominator is zero."""
        def val(name: str) -> int:
            c = self._counters.get(name)
            return c.value if c is not None else 0

        self._fold()
        looked = val("cache.hit") + val("cache.miss")
        raw_in = bytes_out = dec_bytes = 0
        dec_s = 0.0
        if traffic is not None:
            raw_in = traffic.total_bytes("codec", "raw_in")
            bytes_out = traffic.total_bytes("codec", "compressed_out")
            dec_bytes, dec_s = traffic.decoded()
        return {
            "cache.hit_rate": (val("cache.hit") / looked) if looked else None,
            "codec.compression_ratio":
                (raw_in / bytes_out) if bytes_out else None,
            "codec.decode_bytes_per_s":
                (dec_bytes / dec_s) if dec_s > 0 else None,
        }

    def snapshot(self, traffic=None) -> Dict[str, Any]:
        self._fold()
        snap: Dict[str, Any] = {
            "counters": {n: c.snapshot() for n, c in sorted(self._counters.items())},
            "gauges": {n: g.snapshot() for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.snapshot() for n, h in sorted(self._histograms.items())},
        }
        # Only emitted once there is a source (the cache counters, declared
        # by declare_standard or first use, or a ledger) — empty registries
        # keep the bare 3-section shape.
        if traffic is not None or any(
                n in self._counters for n in ("cache.hit", "cache.miss")):
            snap["derived"] = self.derived_gauges(traffic)
        return snap

    def to_json(self, indent: Optional[int] = 2, traffic=None) -> str:
        def _safe(o):
            return str(o)

        snap = self.snapshot(traffic)
        # JSON has no Infinity; clamp unobserved min/max already handled
        # (None) — histograms with observations always have finite min/max.
        return json.dumps(snap, indent=indent, default=_safe)

    def write_json(self, path: str, indent: Optional[int] = 2,
                   traffic=None) -> int:
        payload = self.to_json(indent, traffic)
        with open(path, "w") as fh:
            fh.write(payload)
        return len(payload)

    def clear(self) -> None:
        """Drop every instrument and every watch."""
        with self._fold_lock:
            self._watched.clear()
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __repr__(self) -> str:
        return (f"<MetricsRegistry {len(self._counters)}c "
                f"{len(self._gauges)}g {len(self._histograms)}h>")
