"""The disk tier's substrate: an append-only blob log.

The paper keeps the compressed state in CPU memory; when even the
*compressed* footprint outgrows RAM, the next rung is disk.
:class:`BlobLog` is that rung: an append-only file written at explicit
offsets and read through a memory map.
Updates append (the old record becomes garbage); the owner triggers a
rewrite when the garbage fraction crosses its threshold. Its one owner is
:class:`~repro.memory.hierarchy.TieredChunkStore`, whose RAM budget decides
how much of the state lives here — all of it at budget 0, where the only
RAM cost is the per-chunk index and the qubit ceiling becomes a function
of disk capacity.

The log is scratch: it is opened ``w+b``, only its owner's in-memory index
says where anything is, and nothing ever reopens it. A log given no path
makes its own ``memqsim_*.log`` temp file and unlinks it as soon as it is
open, so a process that dies any way at all (SIGKILL included) leaves no
file behind. A record carries its own check — the payload's CRC32, taken
at append and verified on every read — and a blob whose bytes changed on
disk raises :class:`~repro.memory.persist.StoreFormatError` instead of
decoding to a wrong state.

An append is one ``pwrite`` at the log's tracked end: no file position to
seek, no write buffer to flush before the map is regrown. So an append that
fails (``ENOSPC``, a short write that cannot be finished) changes nothing
the log tracks, and the next append overwrites whatever part of the record
reached the file. A rewrite (compaction) writes a sibling file and swaps
it in only when it is complete, so one that fails leaves the log readable.
A named log's sibling is then renamed over it; an anonymous log's sibling
is anonymous too, and only the handles are swapped.
"""

from __future__ import annotations

import errno
import mmap
import os
import tempfile
import zlib
from pathlib import Path
from typing import Dict, Optional, Union

from .accounting import MemoryTracker
from .persist import StoreFormatError

__all__ = ["BlobLog"]

CATEGORY = "disk_store"


class BlobLog:
    """Append-only blob log: positioned writes, mmap-backed reads.

    Records are opaque ``(offset, length, crc32)`` tuples; callers key
    remaps by ``id(record)`` so shared records (the interned zero blob) stay
    shared across a rewrite. Appends are positioned writes on an unbuffered
    handle; reads are memcpys out of an ``mmap`` view of the page cache,
    regrown only when a read reaches past the mapped extent.

    The ``tracker`` category records *file* bytes; every append/read also
    lands on the traffic ledger's ``disk.write``/``disk.read`` edge when
    telemetry is enabled.
    """

    def __init__(
        self,
        path: Union[str, Path, None],
        tracker: Optional[MemoryTracker] = None,
        telemetry=None,
        category: str = CATEGORY,
    ):
        from ..telemetry import NULL_TELEMETRY

        #: a log given no path is anonymous: ``path`` is the name it was
        #: made under, unlinked as soon as the file was open
        self.anonymous = path is None
        if self.anonymous:
            fd, path = tempfile.mkstemp(prefix="memqsim_", suffix=".log")
            self._fh = open(fd, "w+b", buffering=0)
            os.unlink(path)
        else:
            self._fh = open(path, "w+b", buffering=0)
        self.path = Path(path)
        self.tracker = tracker if tracker is not None else MemoryTracker()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.category = category
        self._fd = self._fh.fileno()
        self._mm: Optional[mmap.mmap] = None
        self._mapped = 0
        self._file_bytes = 0
        self._live_bytes = 0

    # -- properties -----------------------------------------------------------

    @property
    def file_bytes(self) -> int:
        return self._file_bytes

    @property
    def live_bytes(self) -> int:
        return self._live_bytes

    @property
    def garbage_fraction(self) -> float:
        if self._file_bytes == 0:
            return 0.0
        return 1.0 - self._live_bytes / self._file_bytes

    # -- record I/O -----------------------------------------------------------

    def append(self, blob: bytes) -> tuple:
        """Append ``blob``; returns its ``(offset, length, crc32)`` record.

        Raises the ``OSError`` of a write that fails, with the log as it
        was before the call."""
        off = self._file_bytes
        done = os.pwrite(self._fd, blob, off)
        while done < len(blob):  # a short write: finish it or fail
            wrote = os.pwrite(self._fd, memoryview(blob)[done:], off + done)
            if wrote == 0:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC),
                              str(self.path))
            done += wrote
        self._file_bytes += len(blob)
        self._live_bytes += len(blob)
        self.tracker.alloc(self.category, len(blob))
        if self.telemetry.enabled:
            self.telemetry.traffic.record("disk", "write", len(blob))
        return (off, len(blob), zlib.crc32(blob))

    def read(self, rec: tuple) -> bytes:
        """Read a record's payload; raises :class:`StoreFormatError` when
        it is not the bytes appended."""
        off, length, crc = rec
        if off + length > self._mapped:
            self._map()
        blob = self._mm[off:off + length] if length else b""
        if len(blob) != length or zlib.crc32(blob) != crc:
            raise StoreFormatError(
                f"blob log {self.path.name}: record at offset {off} "
                f"({length} B) fails its CRC32 check")
        if self.telemetry.enabled:
            self.telemetry.traffic.record("disk", "read", len(blob))
        return blob

    def free(self, rec: tuple) -> None:
        """Mark a record dead (its bytes become garbage until a rewrite)."""
        self._live_bytes -= rec[1]

    def _map(self) -> None:
        """Map the file as far as it is written (writes need no flush)."""
        self._unmap()
        if self._file_bytes:
            self._mm = mmap.mmap(self._fd, self._file_bytes,
                                 access=mmap.ACCESS_READ)
            self._mapped = self._file_bytes

    def _unmap(self) -> None:
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        self._mapped = 0

    # -- rewrite (compaction core) --------------------------------------------

    def rewrite(self, records: Dict[int, tuple]) -> Dict[int, tuple]:
        """Rewrite the log keeping only ``records`` (keyed by ``id(rec)``).

        Returns ``{id(old_rec): new_rec}`` so the owner can remap its
        index; shared old records map to one shared new record. The
        survivors are appended to a sibling log, which replaces this one
        only once all of them are on it: an append that fails
        (``ENOSPC``) removes the sibling and re-raises, and the log, every
        record and the tracker are as they were.
        """
        payloads = {key: self.read(rec) for key, rec in records.items()}
        # The sibling books its bytes on a tracker of its own: this log's
        # tracker changes only when the sibling is adopted.
        sibling = None if self.anonymous \
            else self.path.with_name(self.path.name + ".compact")
        fresh = BlobLog(sibling, telemetry=self.telemetry,
                        category=self.category)
        try:
            moved = {key: fresh.append(blob) for key, blob in payloads.items()}
            if not self.anonymous:
                os.replace(fresh.path, self.path)
        except BaseException:
            fresh.close()
            fresh.unlink()
            raise
        self._unmap()
        self._fh.close()
        self._fh, self._fd = fresh._fh, fresh._fd
        self.tracker.resize(self.category, self._file_bytes, fresh.file_bytes)
        self._file_bytes = self._live_bytes = fresh.file_bytes
        return moved

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        self._unmap()
        self._fh.close()
        self.tracker.free(self.category, self._file_bytes)
        self._file_bytes = 0
        self._live_bytes = 0

    def unlink(self) -> None:
        if self.anonymous:
            return  # its name went when it was opened
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def __repr__(self) -> str:
        return (
            f"<BlobLog {self.path.name} file={self._file_bytes:,}B "
            f"live={self._live_bytes:,}B garbage={self.garbage_fraction:.0%}>"
        )
