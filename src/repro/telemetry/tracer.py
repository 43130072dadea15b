"""Tracing spans with Chrome-trace / Perfetto and JSONL export.

A :class:`Tracer` records nestable, attributed intervals of work::

    with tracer.span("h2d", chunk=3, nbytes=65536):
        ...upload...

Spans are timestamped with :func:`time.perf_counter` relative to the
tracer's epoch, carry arbitrary key/value attributes, and know their
nesting depth and parent (per thread). A pipeline hop is a row of the
run's :class:`~repro.device.timeline.Timeline`, drawn as a span by every
query and export (:meth:`Tracer.attach`). The whole log exports as

* **Chrome trace** (``trace_events`` JSON) — load the file at
  ``chrome://tracing`` or https://ui.perfetto.dev to see the pipeline
  lanes; every span is one complete (``"ph": "X"``) event with ``ts`` and
  ``dur`` in microseconds;
* **JSONL** — one span object per line, for ad-hoc ``jq``/pandas analysis.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from .logutil import set_active_span

__all__ = ["Span", "Tracer", "LANE_TID_BASE"]

#: trace row (tid) of a hop codec lane ``k`` ran: ``LANE_TID_BASE + k``
LANE_TID_BASE = 100


class Span:
    """One completed (or in-flight) unit of traced work."""

    __slots__ = ("name", "start", "duration", "args", "tid", "depth", "parent")

    def __init__(self, name: str, start: float = 0.0, duration: float = 0.0,
                 args: Optional[Dict[str, Any]] = None, tid: int = 0,
                 depth: int = 0, parent: Optional[str] = None):
        self.name = name
        self.start = start          # seconds since tracer epoch
        self.duration = duration    # seconds
        self.args = args if args is not None else {}
        self.tid = tid
        self.depth = depth
        self.parent = parent

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_event(self) -> Dict[str, Any]:
        """This span as one Chrome ``trace_events`` complete event."""
        return {
            "name": self.name,
            "cat": str(self.args.get("cat", "repro")),
            "ph": "X",
            "ts": self.start * 1e6,
            "dur": self.duration * 1e6,
            "pid": 1,
            "tid": self.tid,
            "args": dict(self.args),
        }

    def __repr__(self) -> str:
        return (f"<Span {self.name} +{self.start * 1e3:.3f}ms "
                f"dur={self.duration * 1e3:.3f}ms depth={self.depth} "
                f"args={self.args}>")


class _SpanCtx:
    """Context manager that opens/closes one span on a tracer."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._tracer._open(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self.span)
        return False


class Tracer:
    """Collects spans; thread-safe appends, per-thread nesting stacks."""

    def __init__(self, process_name: str = "repro"):
        self.process_name = process_name
        self._epoch = time.perf_counter()
        self._spans: List[Span] = []
        #: attached: [timeline, tid, rows read, decoded bytes, seconds]
        self._timelines: List[list] = []
        #: counter samples: ``(name, t_seconds, {series: value})`` — exported
        #: as Chrome ``"ph": "C"`` events (stacked counter tracks).
        self.counters: List[Tuple[str, float, Dict[str, float]]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tids: Dict[int, int] = {}

    @property
    def now(self) -> float:
        """Seconds since this tracer's epoch (the span/counter time base)."""
        return time.perf_counter() - self._epoch

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **args) -> _SpanCtx:
        """Open a nested span: ``with tracer.span("kernel", chunk=2): ...``"""
        return _SpanCtx(self, Span(name, args=args, tid=self._tid()))

    def counter(self, name: str, t: Optional[float] = None,
                **series: float) -> None:
        """Record one counter sample: ``tracer.counter("rss", bytes=1024)``.

        Counter samples render as stacked counter tracks in trace viewers
        (one track per ``name``, one colored band per ``series`` key).
        ``t`` is seconds since the tracer epoch; default *now*.
        """
        if t is None:
            t = time.perf_counter() - self._epoch
        with self._lock:
            self.counters.append((name, max(0.0, t), dict(series)))

    def record(self, name: str, duration: float, **args) -> Span:
        """Log an already-measured span ending *now* (duration seconds)."""
        now = time.perf_counter() - self._epoch
        sp = Span(name, start=max(0.0, now - duration),
                  duration=max(0.0, duration), args=args, tid=self._tid())
        stack = self._stack()
        if stack:
            sp.depth = len(stack)
            sp.parent = stack[-1].name
        with self._lock:
            self._spans.append(sp)
        return sp

    def instant(self, name: str, **args) -> Span:
        """Zero-duration marker (rendered as a tick in trace viewers)."""
        return self.record(name, 0.0, **args)

    def attach(self, timeline) -> None:
        """Draw one span per row of ``timeline`` from now on, at its measured
        start: a codec lane's rows on tid :data:`LANE_TID_BASE` + lane, the
        rest on the attaching (the run's) thread's row."""
        tid = self._tid()
        with self._lock:
            self._timelines.append([timeline, tid, 0, 0, 0.0])

    def decoded(self) -> Tuple[int, float]:
        """``(bytes, seconds)`` of the attached ``decompress`` rows. Rows
        only grow, so each is read once however often a dashboard polls."""
        with self._lock:
            for entry in self._timelines:
                new = entry[0].rows[entry[2]:]
                entry[2] += len(new)
                entry[3] += sum(r[5] for r in new if r[0] == "decompress")
                entry[4] += sum(r[2] for r in new if r[0] == "decompress")
            return (sum(e[3] for e in self._timelines),
                    sum(e[4] for e in self._timelines))

    @property
    def spans(self) -> List[Span]:
        """Every span: those recorded here, then one drawn per attached
        row, now."""
        with self._lock:
            recorded, attached = list(self._spans), list(self._timelines)
        return recorded + [
            Span(stage.value, max(0.0, start - self._epoch), seconds,
                 dict(group=group, chunk=chunk, nbytes=nbytes, lane=lane,
                      ops=ops), LANE_TID_BASE + lane if lane else tid)
            for timeline, tid, *_ in attached
            for stage, start, seconds, group, chunk, nbytes, lane, ops
            in list(timeline.rows)]

    # -- span lifecycle (used by _SpanCtx) ----------------------------------------

    def _open(self, sp: Span) -> None:
        stack = self._stack()
        sp.depth = len(stack)
        sp.parent = stack[-1].name if stack else None
        stack.append(sp)
        set_active_span(sp.name)  # log records now carry this span
        sp.start = time.perf_counter() - self._epoch

    def _close(self, sp: Span) -> None:
        sp.duration = time.perf_counter() - self._epoch - sp.start
        stack = self._stack()
        if stack and stack[-1] is sp:
            stack.pop()
        elif sp in stack:  # out-of-order exit; still unwind correctly
            stack.remove(sp)
        set_active_span(stack[-1].name if stack else None)
        with self._lock:
            self._spans.append(sp)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._lock:
                tid = self._tids.setdefault(ident, len(self._tids))
        return tid

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans) + sum(len(t.rows) for t, *_ in self._timelines)

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total_seconds(self, name: Optional[str] = None) -> float:
        return sum(s.duration for s in self.spans
                   if name is None or s.name == name)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._timelines.clear()
            self.counters.clear()

    # -- export --------------------------------------------------------------------

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The full log in Chrome ``trace_events`` JSON object format."""
        events: List[Dict[str, Any]] = [{
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": self.process_name},
        }]
        events.extend(s.to_event() for s in sorted(self.spans,
                                                   key=lambda s: s.start))
        events.extend(
            {
                "name": name,
                "cat": "counter",
                "ph": "C",
                "ts": t * 1e6,
                "pid": 1,
                "args": dict(series),
            }
            for name, t, series in sorted(self.counters, key=lambda c: c[1])
        )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> int:
        """Write the Chrome-trace JSON file; returns bytes written."""
        payload = json.dumps(self.to_chrome_trace(), default=str)
        with open(path, "w") as fh:
            fh.write(payload)
        return len(payload)

    def to_jsonl(self) -> List[str]:
        """One JSON object per span, in start order."""
        return [
            json.dumps({
                "name": s.name, "start": s.start, "duration": s.duration,
                "tid": s.tid, "depth": s.depth, "parent": s.parent,
                "args": s.args,
            }, default=str)
            for s in sorted(self.spans, key=lambda s: s.start)
        ]

    def write_jsonl(self, path: str) -> int:
        lines = self.to_jsonl()
        with open(path, "w") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
        return len(lines)

    def summary(self, top: int = 10) -> str:
        """Per-name totals, descending — a quick where-did-time-go table."""
        agg: Dict[str, Tuple[int, float]] = {}
        for s in self.spans:
            c, t = agg.get(s.name, (0, 0.0))
            agg[s.name] = (c + 1, t + s.duration)
        rows = sorted(agg.items(), key=lambda kv: -kv[1][1])[:top]
        lines = [f"{'span':<20} {'count':>8} {'total':>12}"]
        for name, (c, t) in rows:
            lines.append(f"{name:<20} {c:>8} {t * 1e3:>10.2f}ms")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<Tracer {len(self)} spans>"
