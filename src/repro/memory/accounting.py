"""Memory accounting: current/peak bytes per category.

The whole point of MEMQSim is the memory footprint, so every allocation the
simulator makes flows through a :class:`MemoryTracker`: the compressed host
store, the host staging buffers, and the device arena each get a category.
The tracker answers the two headline questions:

* peak bytes per category / total (Fig. 2 benchmark), and
* the *qubit headroom*: how many extra qubits the same budget supports at
  the observed compression ratio (the paper's "+5 qubits" claim).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["MemoryTracker", "MemorySnapshot"]


@dataclass
class MemorySnapshot:
    """Point-in-time memory state (bytes)."""

    label: str
    current: Dict[str, int]
    total: int


class MemoryTracker:
    """Tracks current and peak byte usage by category.

    With a telemetry object attached, every balance change also updates a
    ``mem.<category>.bytes`` gauge (whose ``max`` mirrors the peak), which
    the resource monitor samples onto the trace's time axis.
    """

    def __init__(self, telemetry=None) -> None:
        self._current: Dict[str, int] = {}
        self._peak: Dict[str, int] = {}
        self._total = 0  # the sum of _current, kept as it changes
        self._total_peak = 0
        self._snapshots: List[MemorySnapshot] = []
        self.telemetry = telemetry

    def attach_telemetry(self, telemetry) -> None:
        """Start mirroring balances into gauges (existing ones included)."""
        self.telemetry = telemetry
        if telemetry is not None and telemetry.enabled:
            for cat, cur in self._current.items():
                telemetry.metrics.gauge(f"mem.{cat}.bytes").set(cur)

    def _gauge(self, category: str, value: int) -> None:
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.metrics.gauge(f"mem.{category}.bytes").set(value)

    # -- mutation ---------------------------------------------------------

    def alloc(self, category: str, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        cur = self._current.get(category, 0) + nbytes
        self._current[category] = cur
        if cur > self._peak.get(category, 0):
            self._peak[category] = cur
        self._total += nbytes
        if self._total > self._total_peak:
            self._total_peak = self._total
        self._gauge(category, cur)

    def free(self, category: str, nbytes: int) -> None:
        cur = self._current.get(category, 0) - nbytes
        if cur < 0:
            raise ValueError(
                f"negative balance for {category!r}: freeing {nbytes} from "
                f"{self._current.get(category, 0)}"
            )
        self._current[category] = cur
        self._total -= nbytes
        self._gauge(category, cur)

    def resize(self, category: str, old_nbytes: int, new_nbytes: int) -> None:
        """Atomic free+alloc so peaks don't double-count a replacement."""
        self.free(category, old_nbytes)
        self.alloc(category, new_nbytes)

    def snapshot(self, label: str = "") -> MemorySnapshot:
        snap = MemorySnapshot(label, dict(self._current), self.total_current())
        self._snapshots.append(snap)
        return snap

    # -- queries ------------------------------------------------------------

    def current(self, category: str) -> int:
        return self._current.get(category, 0)

    def peak(self, category: str) -> int:
        return self._peak.get(category, 0)

    def total_current(self) -> int:
        return self._total

    def total_peak(self) -> int:
        return self._total_peak

    def categories(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self._current) | set(self._peak)))

    @property
    def snapshots(self) -> Tuple[MemorySnapshot, ...]:
        return tuple(self._snapshots)

    # -- derived figures -------------------------------------------------------

    @staticmethod
    def dense_bytes(num_qubits: int) -> int:
        """Footprint of the uncompressed dense state vector."""
        return (1 << num_qubits) * 16

    def effective_ratio(self, num_qubits: int, category: str = "chunk_store") -> float:
        """Dense footprint over this run's peak store footprint."""
        peak = self.peak(category)
        if peak == 0:
            return math.inf
        return self.dense_bytes(num_qubits) / peak

    @staticmethod
    def extra_qubits_from_ratio(ratio: float) -> float:
        """Qubit headroom: each 2x of compression buys one more qubit."""
        if ratio <= 0:
            raise ValueError("ratio must be positive")
        return math.log2(ratio)

    def report(self) -> str:
        lines = [f"{'category':<16} {'current':>14} {'peak':>14}"]
        for cat in self.categories():
            lines.append(
                f"{cat:<16} {self.current(cat):>14,} {self.peak(cat):>14,}"
            )
        lines.append(f"{'TOTAL':<16} {self.total_current():>14,} {self.total_peak():>14,}")
        return "\n".join(lines)
