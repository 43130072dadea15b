"""Simulated device: specs, arena, transfer strategies, executor, timeline."""

from .arena import ArenaLease, DeviceArena, DeviceBuffer, DeviceOutOfMemory
from .executor import DeviceExecutor
from .spec import DeviceSpec, HostSpec
from .timeline import Stage, Timeline
from .transfer import (
    AsyncPerElementCopy,
    BufferedCopy,
    SyncCopy,
    TransferStrategy,
    make_strategy,
)

__all__ = [
    "DeviceSpec",
    "HostSpec",
    "DeviceArena",
    "ArenaLease",
    "DeviceBuffer",
    "DeviceOutOfMemory",
    "DeviceExecutor",
    "TransferStrategy",
    "SyncCopy",
    "AsyncPerElementCopy",
    "BufferedCopy",
    "make_strategy",
    "Stage",
    "Timeline",
]
