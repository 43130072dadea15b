"""Resource monitor: a sampling daemon thread over the metrics registry.

While a simulation runs, a :class:`ResourceMonitor` wakes every
``interval_ms`` (default ~20 ms) and records one sample of

* **process RSS** (``/proc/self/statm`` on Linux; best-effort elsewhere),
* **device-arena occupancy** (the ``mem.device_arena.bytes`` gauge the
  :class:`~repro.memory.accounting.MemoryTracker` mirrors into metrics),
* **chunk-cache hit rate** (derived from the ``cache.hit``/``cache.miss``
  counters), and
* **cumulative codec bytes in/out** (the traffic ledger's
  ``codec.raw_in`` / ``codec.compressed_out`` edge),

as a gauge time-series. The series exports two ways from one capture:

* merged into the owning :class:`~repro.telemetry.tracer.Tracer` as Chrome
  ``"ph": "C"`` counter events, so Perfetto draws the memory curve *under*
  the pipeline spans on the same time axis;
* as the ``resource_timeline`` section of
  :meth:`~repro.core.results.MemQSimResult.to_dict` — the machine-readable
  memory-over-time record (the shape of the paper's Fig. 2).

The default (``monitor_interval_ms = 0``) builds no monitor at all.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional

__all__ = ["ResourceMonitor", "read_rss_bytes"]

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def read_rss_bytes() -> int:
    """Current process resident-set size in bytes (0 if unavailable).

    Reads ``/proc/self/statm`` (second field = resident pages) so there is
    no psutil dependency; on platforms without procfs falls back to
    ``resource.getrusage`` peak RSS, then 0.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        # ru_maxrss is KiB on Linux, bytes on macOS; either way it is a
        # peak, not current — good enough as a fallback signal.
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(rss if rss > 1 << 32 else rss * 1024)
    except Exception:
        return 0


#: per-sample fields, in emission order (also the schema of ``timeline()``)
SAMPLE_FIELDS = (
    "t",
    "rss_bytes",
    "arena_bytes",
    "store_bytes",
    "cache_hit_rate",
    "codec_bytes_in",
    "codec_bytes_out",
)


class ResourceMonitor:
    """Samples process + pipeline gauges on a daemon thread.

    Args:
        telemetry: the run's :class:`~repro.telemetry.Telemetry`; samples
            read its metrics registry and land in its tracer as counter
            events.
        interval_ms: sampling period; clamped to >= 1 ms.

    ``start()``/``stop()`` are idempotent; a stopped monitor keeps its
    samples and can be queried but not restarted (create a fresh one per
    run — :class:`~repro.core.memqsim.MemQSim` does).
    """

    def __init__(self, telemetry, interval_ms: float = 20.0):
        self.telemetry = telemetry
        self.interval_s = max(0.001, float(interval_ms) / 1e3)
        self.samples: List[Dict[str, float]] = []
        self._thread: Optional[threading.Thread] = None
        self._stop_evt = threading.Event()
        self._lock = threading.Lock()
        self._stopped = False
        self._last_poke = -float("inf")

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ResourceMonitor":
        """Begin sampling (idempotent; no-op after ``stop``)."""
        with self._lock:
            if self._thread is not None or self._stopped:
                return self
            self._stop_evt.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-resource-monitor", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> "ResourceMonitor":
        """Stop sampling and take one final sample (idempotent)."""
        with self._lock:
            thread, self._thread = self._thread, None
            already = self._stopped
            self._stopped = True
        if thread is not None:
            self._stop_evt.set()
            thread.join(timeout=5.0)
        if not already:
            try:
                self.sample_once()  # the closing data point
            except Exception:
                pass  # a failed final read must not mask the run's outcome
        return self

    def __enter__(self) -> "ResourceMonitor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- sampling ------------------------------------------------------------

    def poke(self) -> None:
        """A synchronous sample at an interesting moment, rate-limited.

        Hot loops (the scheduler, while a device buffer is live) call this
        instead of :meth:`sample_once` so the monitor's own period stays
        the cost ceiling: a poke within ``interval_s`` of the previous one
        is a two-load no-op, not a procfs read plus five trace events.
        """
        now = time.perf_counter()
        if now - self._last_poke < self.interval_s:
            return
        self._last_poke = now
        self.sample_once()

    def sample_once(self) -> Dict[str, float]:
        """Take one sample now (also what the daemon loop calls)."""
        tel = self.telemetry
        m = tel.metrics
        t = tel.tracer.now
        led = tel.traffic
        hit = m.counter("cache.hit").value
        miss = m.counter("cache.miss").value
        looked = hit + miss
        sample: Dict[str, float] = {
            "t": t,
            "rss_bytes": float(read_rss_bytes()),
            "arena_bytes": float(m.gauge("mem.device_arena.bytes").value),
            "store_bytes": float(m.gauge("mem.chunk_store.bytes").value),
            "cache_hit_rate": (hit / looked) if looked else 0.0,
            "codec_bytes_in": float(led.total_bytes("codec", "raw_in")),
            "codec_bytes_out": float(
                led.total_bytes("codec", "compressed_out")),
        }
        with self._lock:
            self.samples.append(sample)
        tr = tel.tracer
        tr.counter("mem.rss", t=t, bytes=sample["rss_bytes"])
        tr.counter("mem.device_arena", t=t, bytes=sample["arena_bytes"])
        tr.counter("mem.chunk_store", t=t, bytes=sample["store_bytes"])
        tr.counter("cache.hit_rate", t=t, rate=sample["cache_hit_rate"])
        tr.counter("codec.bytes", t=t, bytes_in=sample["codec_bytes_in"],
                   bytes_out=sample["codec_bytes_out"])
        if tel.bus is not None:
            tel.bus.publish("monitor.sample", t=t,
                            **{k: v for k, v in sample.items() if k != "t"})
        return sample

    def _loop(self) -> None:
        while not self._stop_evt.wait(self.interval_s):
            try:
                self.sample_once()
            except Exception:
                # One bad read (e.g. procfs hiccup) must not kill the
                # sampler thread mid-run; skip the sample and keep going.
                continue

    # -- export --------------------------------------------------------------

    def timeline(self) -> Dict[str, Any]:
        """The captured series as the ``resource_timeline`` payload.

        Columnar (one list per field) to keep the JSON compact; ``peaks``
        pre-computes the per-series maxima the report headline uses.
        """
        with self._lock:
            samples = list(self.samples)
        cols: Dict[str, List[float]] = {f: [] for f in SAMPLE_FIELDS}
        for s in samples:
            for f in SAMPLE_FIELDS:
                cols[f].append(s[f])
        return {
            "interval_ms": self.interval_s * 1e3,
            "num_samples": len(samples),
            "fields": list(SAMPLE_FIELDS),
            "series": cols,
            "peaks": {
                f: (max(cols[f]) if cols[f] else 0.0)
                for f in SAMPLE_FIELDS if f != "t"
            },
        }

    def __repr__(self) -> str:
        state = "running" if self.running else (
            "stopped" if self._stopped else "idle")
        return (f"<ResourceMonitor {state} {len(self.samples)} samples "
                f"@{self.interval_s * 1e3:g}ms>")
