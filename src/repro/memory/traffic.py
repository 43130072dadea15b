"""Memory-traffic ledger and chunk access recorder (canonical import path).

The memory plane is where tier edges live — arena, store, disk, cache —
so this is the natural place to import the audit types from::

    from repro.memory.traffic import TrafficLedger, ChunkAccessRecorder

The implementation sits in :mod:`repro.telemetry.traffic` because the
ledger hangs off :class:`~repro.telemetry.Telemetry` (which must not
import the memory package — the stores import telemetry).
"""

from ..telemetry.traffic import (
    EDGES,
    OUT_OF_STAGE,
    AccessEvent,
    ChunkAccessRecorder,
    TrafficLedger,
)

__all__ = [
    "EDGES",
    "OUT_OF_STAGE",
    "TrafficLedger",
    "AccessEvent",
    "ChunkAccessRecorder",
]
