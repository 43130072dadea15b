"""Persistence for the compressed chunk store (checkpoint/restore).

Because chunks are already compressed byte blobs, a checkpoint is just the
layout header plus the blob table — the on-disk footprint equals the
in-memory compressed footprint, and save/load never materializes the dense
vector. The format is a single self-describing file:

    magic  "MQS3"
    u8     amplitude itemsize (8 = complex64, 16 = complex128)
    u32    num_qubits
    u32    chunk_qubits
    u32    compressor-name length | name bytes (utf-8)
    u64    num_chunks
    u64    zero-blob length | u32 its CRC32 | the shared zero blob
    per chunk: u64 blob length | u32 CRC32 of the blob | blob bytes
               (length 2^64-1 marks a reference to the shared zero blob;
                length 2^64-2 marks an uninitialized chunk; neither
                carries a CRC or bytes)

Every blob is checked against its CRC32 as it is read, so a flipped byte
anywhere in a blob record raises :class:`StoreFormatError` instead of
decoding to a wrong state. The loader still reads the two frames written
before the check: ``MQS1`` (complex128, no itemsize byte) and ``MQS2``,
both without CRCs, and logs one warning that such a frame is unverified.
The frame must end with the last blob: a file cut short anywhere, or with
bytes after it, raises :class:`StoreFormatError`, and so does a header
whose layout fields disagree with each other or with the bytes that
follow.
A chunk holding the shared zero blob is filled with zeros when loaded,
never decoded, so the zero blob is decoded once, here: one that does not
decode to a chunk of all-zero bytes raises :class:`StoreFormatError`.
A checkpoint is written to a temporary file beside ``path`` and renamed
over it (:func:`write_atomic`, which the serve daemon's events files use
too), so ``path`` holds either the old checkpoint or the new one.

Use :func:`save_store` / :func:`load_store`; the loader rebuilds the store
around a compressor instance you provide (it must match the one that wrote
the blobs — the name is checked).
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..compression.interface import Compressor
from ..telemetry import get_logger
from .accounting import MemoryTracker
from .chunkstore import CompressedChunkStore
from .layout import ChunkLayout

log = get_logger(__name__)

__all__ = ["save_store", "load_store", "write_atomic", "StoreFormatError"]

_MAGIC_V1 = b"MQS1"  # read only: complex128, no CRCs
_MAGIC_V2 = b"MQS2"  # read only: itemsize byte, no CRCs
_MAGIC = b"MQS3"
_ZERO_REF = (1 << 64) - 1
_UNINIT = (1 << 64) - 2


class StoreFormatError(ValueError):
    """Raised for malformed or mismatched checkpoint files."""


def _check_zero_blob(blob: bytes, store: CompressedChunkStore) -> None:
    """Decode the shared zero blob once: a load fills its chunks with
    zeros, so it must decode to exactly that."""
    try:
        arr = store.compressor.decompress(blob)
    except Exception as exc:  # any codec's error on malformed bytes
        raise StoreFormatError(f"zero blob does not decode: {exc}") from exc
    if (arr.shape != (store.layout.chunk_size,) or arr.dtype != store.dtype
            or arr.view(np.uint8).any()):
        raise StoreFormatError(
            "zero blob does not decode to an all-zero chunk of "
            f"{store.layout.chunk_size} {store.dtype} amplitudes")


def write_atomic(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` whole or not at all.

    The bytes go to a temp sibling, are fsynced, and replace ``path`` in
    one rename. A write that fails (a full disk: ``ENOSPC``, ``EFBIG``)
    removes the sibling and re-raises; whatever was at ``path`` is left
    as it was."""
    path = Path(path)
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


def save_store(store: CompressedChunkStore, path: Union[str, Path]) -> int:
    """Write the store to ``path``; returns bytes written."""
    path = Path(path)
    name = store.compressor.name.encode("utf-8")
    item = store.layout.itemsize
    parts = [
        _MAGIC + struct.pack("<B", item),
        struct.pack("<II", store.layout.num_qubits, store.layout.chunk_qubits),
        struct.pack("<I", len(name)),
        name,
        struct.pack("<Q", store.layout.num_chunks),
    ]

    def record(blob: bytes) -> None:
        parts.append(struct.pack("<QI", len(blob), zlib.crc32(blob)))
        parts.append(blob)

    record(store.zero_blob_bytes() or b"")
    for k in range(store.layout.num_chunks):
        if store.is_zero_chunk(k):
            parts.append(struct.pack("<Q", _ZERO_REF))
            continue
        blob = store.get_blob(k)
        if blob is None:
            parts.append(struct.pack("<Q", _UNINIT))
        else:
            record(blob)
    data = b"".join(parts)
    write_atomic(path, data)
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

    def blob(self, length: int, checked: bool) -> bytes:
        """A blob of ``length`` bytes, preceded by its CRC32 when
        ``checked``."""
        if not checked:
            return self.take(length)
        (crc,) = self.unpack("<I")
        at = self.off
        blob = self.take(length)
        if zlib.crc32(blob) != crc:
            raise StoreFormatError(
                f"blob at offset {at} ({length} B) fails its CRC32 check")
        return blob


def load_store(
    path: Union[str, Path],
    compressor: Compressor,
    tracker: Optional[MemoryTracker] = None,
) -> CompressedChunkStore:
    """Rebuild a store from a checkpoint written by :func:`save_store`."""
    frame = _Frame(Path(path).read_bytes())
    itemsize = 16
    magic = frame.take(4)
    if magic not in (_MAGIC, _MAGIC_V2, _MAGIC_V1):
        raise StoreFormatError("not a MEMQSim store checkpoint")
    checked = magic == _MAGIC
    if not checked:
        log.warning("%s is a legacy %s checkpoint: its blobs carry no CRC32 "
                    "and are loaded unverified; saving it again writes %s",
                    path, magic.decode(), _MAGIC.decode())
    if magic != _MAGIC_V1:
        (itemsize,) = frame.unpack("<B")
        if itemsize not in (8, 16):
            raise StoreFormatError(f"bad amplitude itemsize {itemsize}")
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
    if 8 * (num_chunks + 1) + 4 * checked > left:
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
    zero = frame.blob(zero_len, checked) or None
    if zero is not None:
        _check_zero_blob(zero, store)
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
        store._set_blob(k, frame.blob(blen, checked))
    if frame.off != len(frame.data):
        raise StoreFormatError(
            f"{len(frame.data) - frame.off} bytes after the last blob")
    log.info("loaded %d-chunk store from %s (%d bytes, codec=%s)",
             num_chunks, path, len(frame.data), name)
    return store
