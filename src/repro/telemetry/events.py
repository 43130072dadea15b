"""The live event bus: a bounded, thread-safe ring of telemetry events.

The bus says where a run stands — run and stage start/end, each finished
group pass, a cache flush, monitor samples, serve jobs — as small
:class:`TelemetryEvent`s; it copies no hop and no counter. It is the push
side of the live observability plane: the serve daemon's per-job SSE
endpoint, ``run --events-out`` and the HTML report's event-timeline
section all read from it.

Design points:

* **bounded memory** — a fixed-capacity ring; once full, publishing
  overwrites the oldest event (drop-oldest) and increments ``dropped``.
  A run of any length holds at most ``capacity`` events, so the bus can
  stay on for multi-hour beyond-RAM runs;
* **fan-out subscribers** — :meth:`EventBus.subscribe` hands out an
  independent cursor; each subscriber polls at its own pace and learns how
  many events it missed when it fell behind the ring;
* **one clock** — event timestamps share the owning tracer's epoch
  (seconds since run start); ``publish(t=)`` places an instant measured
  elsewhere on that same clock.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "TelemetryEvent",
    "EventBus",
    "Subscription",
    "DEFAULT_BUS_CAPACITY",
]

#: default ring size — bounds bus memory regardless of run length
DEFAULT_BUS_CAPACITY = 4096


class TelemetryEvent:
    """One thing that happened, on the run's shared time axis."""

    __slots__ = ("seq", "t", "kind", "data")

    def __init__(self, seq: int, t: float, kind: str,
                 data: Optional[Dict[str, Any]] = None):
        self.seq = seq        # bus-assigned, strictly increasing
        self.t = t            # seconds since the tracer epoch
        self.kind = kind      # "stage.start", "group", "monitor.sample", ...
        self.data = data if data is not None else {}

    def to_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "t": self.t, "kind": self.kind,
                "data": dict(self.data)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), default=str)

    def __repr__(self) -> str:
        return (f"<Event #{self.seq} {self.kind} +{self.t * 1e3:.2f}ms "
                f"{self.data}>")


class Subscription:
    """One reader's cursor into the bus (independent fan-out position)."""

    __slots__ = ("_bus", "cursor", "missed")

    def __init__(self, bus: "EventBus", cursor: int):
        self._bus = bus
        self.cursor = cursor
        #: cumulative events this subscriber lost to ring overwrites
        self.missed = 0

    def poll(self) -> List[TelemetryEvent]:
        """Every event published since the last poll (may be empty)."""
        events, self.cursor, missed = self._bus.events_since(self.cursor)
        self.missed += missed
        return events


class EventBus:
    """Bounded drop-oldest ring of events with fan-out subscribers."""

    def __init__(self, capacity: int = DEFAULT_BUS_CAPACITY,
                 clock: Optional[Callable[[], float]] = None):
        """Args:
            capacity: ring size; the bus never holds more events than this.
            clock: returns the current time on the bus axis (seconds since
                the run epoch); defaults to a private perf_counter epoch.
        """
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._ring: List[Optional[TelemetryEvent]] = [None] * self.capacity
        self._seq = 0          # next sequence number == total published
        self.dropped = 0       # events overwritten before anyone could read
        self._lock = threading.Lock()
        if clock is None:
            epoch = time.perf_counter()
            clock = lambda: time.perf_counter() - epoch  # noqa: E731
        self._clock = clock

    # -- publishing ----------------------------------------------------------

    def publish(self, kind: str, /, t: Optional[float] = None,
                **data: Any) -> TelemetryEvent:
        """Append one event (timestamped *now* unless ``t`` is given).

        ``kind`` is positional-only so payloads may carry a ``kind`` key.
        """
        if t is None:
            t = self._clock()
        with self._lock:
            seq = self._seq
            self._seq += 1
            ev = TelemetryEvent(seq, t, kind, data)
            slot = seq % self.capacity
            if self._ring[slot] is not None:
                self.dropped += 1
            self._ring[slot] = ev
        return ev

    # -- reading -------------------------------------------------------------

    def events_since(self, cursor: int
                     ) -> Tuple[List[TelemetryEvent], int, int]:
        """Events with ``seq >= cursor`` still in the ring.

        Returns ``(events, next_cursor, missed)`` where ``missed`` counts
        events that were published after ``cursor`` but already overwritten
        (the subscriber fell more than ``capacity`` events behind).
        """
        with self._lock:
            seq = self._seq
            oldest = max(0, seq - self.capacity)
            start = max(cursor, oldest)
            missed = start - cursor if cursor < oldest else 0
            events = [self._ring[i % self.capacity] for i in range(start, seq)]
        return events, seq, missed

    def subscribe(self, tail: int = 0) -> Subscription:
        """A new independent cursor; ``tail`` backfills that many events."""
        with self._lock:
            cursor = max(0, self._seq - max(0, int(tail)))
            cursor = max(cursor, self._seq - self.capacity)
        return Subscription(self, cursor)

    def tail(self, n: int) -> List[TelemetryEvent]:
        """The most recent ``n`` retained events, oldest first."""
        events, _, _ = self.events_since(max(0, self._seq - max(0, int(n))))
        return events

    def snapshot(self) -> List[TelemetryEvent]:
        """Every retained event, oldest first."""
        return self.tail(self.capacity)

    @property
    def published(self) -> int:
        """Total events ever published (retained + dropped)."""
        return self._seq

    def __len__(self) -> int:
        return min(self._seq, self.capacity)

    # -- export --------------------------------------------------------------

    def to_jsonl(self) -> List[str]:
        return [ev.to_json() for ev in self.snapshot()]

    def write_jsonl(self, path: str) -> int:
        """Write the retained events as JSONL, whole or not at all
        (:func:`~repro.memory.persist.write_atomic`); returns lines
        written."""
        # lazily: the memory layer imports this package as it loads
        from ..memory.persist import write_atomic

        lines = self.to_jsonl()
        write_atomic(path, "".join(f"{line}\n" for line in lines).encode())
        return len(lines)

    def __repr__(self) -> str:
        return (f"<EventBus {len(self)}/{self.capacity} retained, "
                f"{self.published} published, {self.dropped} dropped>")
