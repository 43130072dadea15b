"""Persistence for the compressed chunk store (checkpoint/restore).

Because chunks are already compressed byte blobs, a checkpoint is just the
layout header plus the blob table — the on-disk footprint equals the
in-memory compressed footprint, and save/load never materializes the dense
vector. The format is a single self-describing file:

    magic  "MQS1"  (complex128 stores) | "MQS2" (dtype-carrying)
    [MQS2 only] u8 amplitude itemsize (8 = complex64, 16 = complex128)
    u32    num_qubits
    u32    chunk_qubits
    u32    compressor-name length | name bytes (utf-8)
    u64    num_chunks
    per chunk: u64 blob length | blob bytes
               (length 2^64-1 marks a reference to the shared zero blob,
                which is stored once up front; length 2^64-2 marks an
                uninitialized chunk)

complex128 stores keep writing the historical ``MQS1`` frame byte for
byte; non-c128 stores write ``MQS2`` with the itemsize byte, and the
loader accepts both. The frame must end with the last blob: a file cut
short anywhere, or with bytes after it, raises :class:`StoreFormatError`,
and so does a header whose layout fields disagree with each other or with
the bytes that follow.
A checkpoint is written to a temporary file beside ``path`` and renamed
over it, so ``path`` holds either the old checkpoint or the new one.

Use :func:`save_store` / :func:`load_store`; the loader rebuilds the store
around a compressor instance you provide (it must match the one that wrote
the blobs — the name is checked).
"""

from __future__ import annotations

import os
import struct
import tempfile
from pathlib import Path
from typing import Optional, Union

from ..compression.interface import Compressor
from ..telemetry import get_logger
from .accounting import MemoryTracker
from .chunkstore import CompressedChunkStore
from .layout import ChunkLayout

log = get_logger(__name__)

__all__ = ["save_store", "load_store", "StoreFormatError"]

_MAGIC = b"MQS1"
_MAGIC_V2 = b"MQS2"
_ZERO_REF = (1 << 64) - 1
_UNINIT = (1 << 64) - 2


class StoreFormatError(ValueError):
    """Raised for malformed or mismatched checkpoint files."""


def save_store(store: CompressedChunkStore, path: Union[str, Path]) -> int:
    """Write the store to ``path``; returns bytes written."""
    path = Path(path)
    name = store.compressor.name.encode("utf-8")
    item = store.layout.itemsize
    parts = [
        _MAGIC if item == 16 else _MAGIC_V2 + struct.pack("<B", item),
        struct.pack("<II", store.layout.num_qubits, store.layout.chunk_qubits),
        struct.pack("<I", len(name)),
        name,
        struct.pack("<Q", store.layout.num_chunks),
    ]
    zero = store.zero_blob_bytes()
    parts.append(struct.pack("<Q", len(zero) if zero is not None else 0))
    if zero is not None:
        parts.append(zero)
    for k in range(store.layout.num_chunks):
        if store.is_zero_chunk(k):
            parts.append(struct.pack("<Q", _ZERO_REF))
            continue
        blob = store.get_blob(k)
        if blob is None:
            parts.append(struct.pack("<Q", _UNINIT))
        else:
            parts.append(struct.pack("<Q", len(blob)))
            parts.append(blob)
    data = b"".join(parts)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp",
                               dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    log.info("saved %d-chunk store to %s (%d bytes)",
             store.layout.num_chunks, path, len(data))
    return len(data)


class _Frame:
    """Bounds-checked reads over a checkpoint's bytes: running off the end
    is a truncated checkpoint, never a bare ``struct.error``."""

    def __init__(self, data: bytes) -> None:
        self.data, self.off = data, 0

    def take(self, n: int) -> bytes:
        end = self.off + n
        if end > len(self.data):
            raise StoreFormatError(
                f"truncated checkpoint: {n} bytes wanted at offset "
                f"{self.off}, {len(self.data) - self.off} left")
        out = self.data[self.off:end]
        self.off = end
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_store(
    path: Union[str, Path],
    compressor: Compressor,
    tracker: Optional[MemoryTracker] = None,
) -> CompressedChunkStore:
    """Rebuild a store from a checkpoint written by :func:`save_store`."""
    frame = _Frame(Path(path).read_bytes())
    itemsize = 16
    magic = frame.take(4)
    if magic == _MAGIC_V2:
        (itemsize,) = frame.unpack("<B")
        if itemsize not in (8, 16):
            raise StoreFormatError(f"bad amplitude itemsize {itemsize}")
    elif magic != _MAGIC:
        raise StoreFormatError("not a MEMQSim store checkpoint")
    num_qubits, chunk_qubits, name_len = frame.unpack("<III")
    try:
        name = frame.take(name_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StoreFormatError(f"bad compressor name: {exc}") from None
    if name != compressor.name:
        raise StoreFormatError(
            f"checkpoint was written with compressor {name!r}, "
            f"got {compressor.name!r}"
        )
    (num_chunks,) = frame.unpack("<Q")
    # The zero blob's length entry and one per chunk follow: a count the
    # bytes left cannot hold is refused before a table that size is built.
    left = len(frame.data) - frame.off
    if 8 * (num_chunks + 1) > left:
        raise StoreFormatError(
            f"{num_chunks} chunks cannot fit in the {left} bytes left")
    try:
        layout = ChunkLayout(num_qubits, chunk_qubits, itemsize=itemsize)
    except ValueError as exc:
        raise StoreFormatError(f"bad layout: {exc}") from None
    if (layout.num_global_qubits >= 64
            or layout.num_chunks != num_chunks):
        raise StoreFormatError("chunk count does not match layout")
    store = CompressedChunkStore(layout, compressor, tracker)
    (zero_len,) = frame.unpack("<Q")
    zero = None
    if zero_len:
        zero = frame.take(zero_len)
        store._zero_blob = zero
    for k in range(num_chunks):
        (blen,) = frame.unpack("<Q")
        if blen == _UNINIT:
            continue
        if blen == _ZERO_REF:
            if zero is None:
                raise StoreFormatError("zero-blob reference without zero blob")
            store._set_blob(k, zero, shared=True)
            continue
        store._set_blob(k, frame.take(blen))
    if frame.off != len(frame.data):
        raise StoreFormatError(
            f"{len(frame.data) - frame.off} bytes after the last blob")
    log.info("loaded %d-chunk store from %s (%d bytes, codec=%s)",
             num_chunks, path, len(frame.data), name)
    return store
