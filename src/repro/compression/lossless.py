"""Lossless byte-transparent compressor backends (zlib / lzma / bz2).

Each runs at one fixed level (zlib 1, lzma preset 0, bz2 1) and takes no
options.

These serve three roles:

* the exactness baseline in the compressor-comparison benchmarks (A2);
* the backstop MEMQSim uses when configured lossless (``compressor="zlib"``),
  in which case the chunked simulator is *bit-identical* to the dense one;
* the raw-fallback stage inside the SZ-like pipeline.
"""

from __future__ import annotations

import bz2
import lzma
import struct
import zlib
from typing import Optional

import numpy as np

from .interface import (
    Compressor,
    coerce_amplitudes,
    decode_target,
    dtype_tag,
    frame_dtype,
    register_compressor,
)

__all__ = ["ZlibCompressor", "LzmaCompressor", "Bz2Compressor", "NullCompressor"]

_MAGIC = b"LSL1"
_COUNT = struct.Struct("<Q")


class _ByteCodecCompressor(Compressor):
    """Shared framing for byte-level codecs."""

    @property
    def is_lossy(self) -> bool:
        return False

    def _encode(self, raw) -> bytes:
        """Encode a bytes-like object (the array's own buffer)."""
        raise NotImplementedError

    def _decode(self, blob: bytes) -> bytes:
        raise NotImplementedError

    def compress(self, data: np.ndarray) -> bytes:
        data = coerce_amplitudes(data)
        return b"".join((dtype_tag(data.dtype), _MAGIC,
                         _COUNT.pack(data.shape[0]), self._encode(data)))

    def decompress(self, blob: bytes,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
        dtype, at = frame_dtype(blob)
        if blob[at:at + 4] != _MAGIC:
            raise ValueError("not a lossless blob")
        (n,) = _COUNT.unpack_from(blob, at + 4)
        out = decode_target(out, dtype, n)
        raw = self._decode(memoryview(blob)[at + 12:])
        out[:] = np.frombuffer(raw, dtype=dtype, count=n)
        return out


class ZlibCompressor(_ByteCodecCompressor):
    """DEFLATE; the fast default lossless backend."""

    name = "zlib"

    def _encode(self, raw) -> bytes:
        return zlib.compress(raw, 1)

    def _decode(self, blob: bytes) -> bytes:
        return zlib.decompress(blob)


class LzmaCompressor(_ByteCodecCompressor):
    """LZMA; highest ratio, slowest — the ratio-ceiling reference."""

    name = "lzma"

    def _encode(self, raw) -> bytes:
        return lzma.compress(raw, preset=0)

    def _decode(self, blob: bytes) -> bytes:
        return lzma.decompress(blob)


class Bz2Compressor(_ByteCodecCompressor):
    """bzip2; middle ground on ratio/speed."""

    name = "bz2"

    def _encode(self, raw) -> bytes:
        return bz2.compress(raw, 1)

    def _decode(self, blob: bytes) -> bytes:
        return bz2.decompress(blob)


class NullCompressor(_ByteCodecCompressor):
    """Identity codec — isolates chunking overhead from compression cost."""

    name = "null"

    def _encode(self, raw):
        return raw

    def _decode(self, blob: bytes) -> bytes:
        return blob


register_compressor("zlib", ZlibCompressor)
register_compressor("lzma", LzmaCompressor)
register_compressor("bz2", Bz2Compressor)
register_compressor("null", NullCompressor)
