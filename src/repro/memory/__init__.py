"""Chunked memory layer: layout math, compressed store, buffers, accounting."""

from .accounting import MemorySnapshot, MemoryTracker
from .bufferpool import BufferPool
from .cache import (
    CACHE_POLICIES,
    BeladyPolicy,
    CacheStats,
    ChunkCache,
    EvictionPolicy,
    LruPolicy,
    MruPolicy,
    make_policy,
)
from .chunkstore import CompressedChunkStore
from .diskstore import BlobLog
from .hierarchy import (
    AccessSchedule,
    MemoryHierarchy,
    TieredChunkStore,
    TierStats,
)
from .layout import ChunkLayout, GroupPlacement
from .persist import StoreFormatError, load_store, save_store
from .traffic import (
    EDGES,
    ChunkAccessRecorder,
    TrafficLedger,
)

__all__ = [
    "ChunkLayout",
    "GroupPlacement",
    "CompressedChunkStore",
    "BlobLog",
    "TieredChunkStore",
    "TierStats",
    "AccessSchedule",
    "MemoryHierarchy",
    "BufferPool",
    "ChunkCache",
    "CacheStats",
    "EvictionPolicy",
    "LruPolicy",
    "MruPolicy",
    "BeladyPolicy",
    "CACHE_POLICIES",
    "make_policy",
    "MemoryTracker",
    "MemorySnapshot",
    "save_store",
    "load_store",
    "StoreFormatError",
    "EDGES",
    "TrafficLedger",
    "ChunkAccessRecorder",
]
