"""Lossless byte-transparent compressor backends (zlib / lzma / bz2 / null).

Each runs at one fixed level (zlib 1, lzma preset 0, bz2 1) and takes no
options.

These serve three roles:

* the exactness baseline in the compressor-comparison benchmarks (A2);
* the backstop MEMQSim uses when configured lossless (``compressor="zlib"``),
  in which case the chunked simulator is *bit-identical* to the dense one;
* the raw-fallback stage inside the SZ-like pipeline.

A blob is one 12-byte header, a magic and the amplitude count, then the
payload. The magic names the frame: ``LSL1`` holds the codec's compressed
bytes, ``LSR1`` (the raw frame) the chunk's own bytes, and ``LSU1`` (the
uniform frame) the one amplitude a chunk repeats bit for bit. zlib picks
the frame per chunk with a sampling probe (:func:`_is_noise`): a chunk
its deflate cannot shrink is stored raw instead of paying for the
attempt, and a chunk the probe finds a repeat in is stored as its one
amplitude when :func:`~repro.compression.interface.uniform_amplitude`
says it is one. lzma and bz2 always compress (they are A2's ratio
references), and ``null`` always writes the raw frame. Every codec reads
all three frames.
"""

from __future__ import annotations

import bz2
import functools
import lzma
import struct
import zlib
from typing import Optional

import numpy as np

from .interface import (
    DTYPE_MAGIC,
    Compressor,
    coerce_amplitudes,
    decode_target,
    dtype_tag,
    fill_uniform,
    frame_dtype,
    inflate_exact,
    register_compressor,
    uniform_amplitude,
)

__all__ = ["ZlibCompressor", "LzmaCompressor", "Bz2Compressor",
           "NullCompressor", "blob_frame"]

_DEFLATE = b"LSL1"
_RAW = b"LSR1"
_UNIFORM = b"LSU1"
_FRAMES = {_DEFLATE: "deflate", _RAW: "raw", _UNIFORM: "uniform"}
_COUNT = struct.Struct("<Q")
_PAYLOAD_AT = len(_DEFLATE) + _COUNT.size

#: zlib's probe reads this many eight-byte words of a chunk, never more,
#: and runs no deflate. A word is a complex64 amplitude, or the real or
#: the imaginary half of a complex128 one. If every sampled word differs
#: from every other, the chunk is dense noise to deflate and goes raw.
#: One repeat sends it to the uniform test, and a chunk that is not one
#: amplitude repeated on to deflate: zeros, a constant tail, a zero
#: imaginary plane, or the few distinct amplitudes of a qft / ghz / grover
#: state all repeat. A dense chunk never reaches the uniform test. On
#: 1 KiB chunks of a dense vqe(10) state level-1 deflate returns 1,043-1,047 B for 1,024, in ~25 us hot and ~70 us a
#: call in a traced run. The probe reads all 32 words of a dense chunk in
#: ~4 us, and leaves a structured one at its first repeat, after ~3 reads
#: and ~1.5 us (~2 us inside a run), at 1 KiB and 16 KiB alike (BENCH_CD1's
#: frame table, 2-vCPU x86_64, CPython 3.11). The trade: on a dense 16 KiB
#: chunk deflate would save ~4 % of the bytes for ~20x the encode time.
_PROBE_WORDS = 32


@functools.lru_cache(maxsize=None)
def _probe_order(words: int) -> tuple:
    """The positions the probe reads in a chunk of ``words`` words, in the
    order it reads them.

    Every word of a chunk of at most ``_PROBE_WORDS``; otherwise
    ``_PROBE_WORDS`` positions at the odd stride ``(words // 32) | 1``,
    wrapping at the end. The stride spans the whole chunk, so a sparse or
    constant tail of more than two strides is sampled twice. Being odd, it
    alternates real and imaginary words of a complex128 chunk and visits
    every residue of a power-of-two period: an even stride on a
    power-of-two chunk would sample one fixed set of amplitude bits and
    miss a local qubit's zero half. The two ends are read first, inwards,
    so the repeats of a structured chunk (a zero imaginary plane, a zero
    tail) turn up within the first few reads.
    """
    if words <= _PROBE_WORDS:
        return tuple(range(words))
    stride = (words // _PROBE_WORDS) | 1
    at = sorted(i * stride % words for i in range(_PROBE_WORDS))
    return tuple(p for pair in zip(at, reversed(at)) for p in pair)[
        :_PROBE_WORDS]


def _is_noise(words: memoryview) -> bool:
    """zlib's probe: whether every sampled word of a chunk (its buffer cast
    to eight-byte words) is distinct. Stops at the first repeat."""
    seen = set()
    for at in _probe_order(len(words)):
        word = words[at]
        if word in seen:
            return False
        seen.add(word)
    return True


def blob_frame(blob: bytes) -> Optional[str]:
    """Sniff a lossless blob's frame from its header: ``"deflate"``
    (``LSL1``), ``"raw"`` (``LSR1``), ``"uniform"`` (``LSU1``), or
    ``None`` for any other blob. A dtype tag is looked through, so the
    chunk store can count frames without decoding anything."""
    if blob[:4] == DTYPE_MAGIC:
        blob = blob[5:]
    return _FRAMES.get(bytes(blob[:4]))


class _ByteCodecCompressor(Compressor):
    """Shared framing for byte-level codecs."""

    @property
    def is_lossy(self) -> bool:
        return False

    def _frame(self, data: np.ndarray):
        """The frame ``data`` is stored in: ``(magic, payload)``. The
        default compresses every chunk."""
        return _DEFLATE, self._encode(data)

    def _encode(self, raw) -> bytes:
        """Encode a bytes-like object (the array's own buffer)."""
        raise NotImplementedError

    def _decode(self, payload, size: int) -> bytes:
        """Decode the payload of a compressed frame of ``size`` bytes."""
        raise ValueError(f"the {self.name} codec writes no LSL1 frames "
                         "and reads none")

    def compress(self, data: np.ndarray) -> bytes:
        data = coerce_amplitudes(data)
        magic, payload = self._frame(data)
        return b"".join((dtype_tag(data.dtype), magic,
                         _COUNT.pack(data.shape[0]), payload))

    def decompress(self, blob: bytes,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
        dtype, at = frame_dtype(blob)
        magic = bytes(blob[at:at + 4])
        if magic not in _FRAMES:
            raise ValueError("not a lossless blob")
        (n,) = _COUNT.unpack_from(blob, at + 4)
        size = n * dtype.itemsize
        raw = memoryview(blob)[at + _PAYLOAD_AT:]
        if magic == _UNIFORM:
            return fill_uniform(raw, dtype, n, out)
        if magic == _DEFLATE:
            raw = self._decode(raw, size)
        if len(raw) != size:
            raise ValueError(f"{magic.decode()} frame holds {len(raw)} "
                             f"bytes, not the {size} its header states")
        out = decode_target(out, dtype, n)
        out[:] = np.frombuffer(raw, dtype=dtype)
        return out


class ZlibCompressor(_ByteCodecCompressor):
    """DEFLATE; the fast default lossless backend. A chunk the probe finds
    dense is stored raw, and a chunk of one repeated amplitude as that
    amplitude."""

    name = "zlib"

    def _frame(self, data: np.ndarray):
        # one word view for the probe and the uniform test: building it
        # is half of what the probe costs
        words = memoryview(data).cast("B").cast("Q")
        if _is_noise(words):
            return _RAW, data
        amplitude = uniform_amplitude(data, words)
        if amplitude is not None:
            return _UNIFORM, amplitude
        return _DEFLATE, self._encode(data)

    def _encode(self, raw) -> bytes:
        return zlib.compress(raw, 1)

    def _decode(self, payload, size: int) -> bytes:
        return inflate_exact(payload, size)


class LzmaCompressor(_ByteCodecCompressor):
    """LZMA; highest ratio, slowest — the ratio-ceiling reference."""

    name = "lzma"

    def _encode(self, raw) -> bytes:
        return lzma.compress(raw, preset=0)

    def _decode(self, payload, size: int) -> bytes:
        return lzma.decompress(payload)


class Bz2Compressor(_ByteCodecCompressor):
    """bzip2; middle ground on ratio/speed."""

    name = "bz2"

    def _encode(self, raw) -> bytes:
        return bz2.compress(raw, 1)

    def _decode(self, payload, size: int) -> bytes:
        return bz2.decompress(payload)


class NullCompressor(_ByteCodecCompressor):
    """Every chunk in the raw frame — isolates chunking overhead from
    compression cost."""

    name = "null"

    def _frame(self, data: np.ndarray):
        return _RAW, data


register_compressor("zlib", ZlibCompressor)
register_compressor("lzma", LzmaCompressor)
register_compressor("bz2", Bz2Compressor)
register_compressor("null", NullCompressor)
