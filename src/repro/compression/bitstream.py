"""Bit-level I/O used by the canonical Huffman coder.

:class:`BitWriter` accumulates variable-width big-endian bit fields into a
``bytearray``; :class:`BitReader` plays them back. Both are deliberately
simple (per-call Python) — bulk symbol streams go through the *vectorized*
pack/unpack helpers, which operate on whole numpy arrays at once.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..memory.bufferpool import scratch_pool

__all__ = ["BitWriter", "BitReader", "pack_codes", "unpack_bits", "pack_fixed",
           "unpack_fixed"]

#: bound on the per-block bit-matrix footprint inside :func:`pack_codes`
_PACK_BLOCK_BITS = 1 << 21


class BitWriter:
    """Accumulates big-endian bit fields; MSB of each field written first."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits < 0 or (nbits and value >> nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._buf.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    @property
    def bit_length(self) -> int:
        return len(self._buf) * 8 + self._nbits

    def getvalue(self) -> bytes:
        """Flush (zero-padding the final byte) and return the bytes."""
        out = bytearray(self._buf)
        if self._nbits:
            out.append((self._acc << (8 - self._nbits)) & 0xFF)
        return bytes(out)


class BitReader:
    """Reads big-endian bit fields written by :class:`BitWriter`."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # absolute bit position

    @property
    def bits_remaining(self) -> int:
        return len(self._data) * 8 - self._pos

    def read(self, nbits: int) -> int:
        if nbits < 0 or nbits > self.bits_remaining:
            raise ValueError("read past end of bitstream")
        pos = self._pos
        end = pos + nbits
        first = pos >> 3
        last = (end + 7) >> 3
        # One arbitrary-precision read of the touched bytes, then drop the
        # trailing bits past `end` and mask to the field width — no per-bit
        # Python loop.
        chunk = int.from_bytes(self._data[first:last], "big")
        chunk >>= (last << 3) - end
        self._pos = end
        return chunk & ((1 << nbits) - 1)


def pack_codes(codes: np.ndarray, lengths: np.ndarray) -> Tuple[bytes, int]:
    """Vectorized: concatenate per-symbol codewords into a packed bit buffer.

    Args:
        codes: uint64 array, codeword value of each symbol (MSB-first).
        lengths: uint8 array, bit length of each codeword (1..56).

    Returns:
        (packed bytes, total bit count).
    """
    n = codes.shape[0]
    if n == 0:
        return b"", 0
    max_len = int(lengths.max())
    if max_len == 0:
        return b"", 0
    lens64 = lengths.astype(np.int64)
    ends = np.cumsum(lens64)
    total_bits = int(ends[-1])
    # Stream the bit matrix in bounded row blocks: each block builds a
    # (rows x max_len) uint8 matrix — row i holds the top `max_len` bits of
    # codeword i, MSB-aligned, with the padding columns before a length-L
    # codeword masked off — and writes its valid bits into a reused flat
    # bit buffer at the exact stream offsets, so the full n x max_len
    # matrix is never materialized.
    rows = max(1, _PACK_BLOCK_BITS // max_len)
    shifts = np.arange(max_len - 1, -1, -1, dtype=np.uint64)[None, :]
    col = np.arange(max_len, dtype=np.int64)[None, :]
    with scratch_pool().borrow(total_bits, np.uint8) as flat:
        for i0 in range(0, n, rows):
            i1 = min(i0 + rows, n)
            bits = ((codes[i0:i1, None] >> shifts) & np.uint64(1)).astype(np.uint8)
            valid = col >= (max_len - lens64[i0:i1, None])
            lo = int(ends[i0 - 1]) if i0 else 0
            flat[lo:int(ends[i1 - 1])] = bits[valid]
        packed = np.packbits(flat)
    return packed.tobytes(), total_bits


def unpack_bits(data: bytes, total_bits: int) -> np.ndarray:
    """Vectorized: expand packed bytes to a uint8 0/1 array of total_bits."""
    arr = np.frombuffer(data, dtype=np.uint8)
    bits = np.unpackbits(arr)
    return bits[:total_bits]


#: narrowest big-endian unsigned dtype per field width, by (width - 1) // 8
_FIELD_DTYPES = [np.dtype(f">u{b}") for b in (1, 2, 4, 4, 8, 8, 8, 8)]


def _container(width: int) -> np.dtype:
    if not 1 <= width <= 64:
        raise ValueError(f"field width {width} outside 1..64")
    return _FIELD_DTYPES[(width - 1) >> 3]


def pack_fixed(values: np.ndarray, width: int) -> bytes:
    """Vectorized: the low ``width`` bits of every value, MSB-first, packed.

    Every value must fit in ``width`` bits. ``ceil(n * width / 8)`` bytes,
    the last one zero-padded.
    """
    be = values.astype(_container(width))
    # Flat (un)packbits is several times faster than the axis= form, and the
    # container is whole bytes, so a reshape gives the same bit matrix.
    bits = np.unpackbits(be.view(np.uint8)).reshape(values.shape[0], -1)
    return np.packbits(bits[:, bits.shape[1] - width:]).tobytes()


def unpack_fixed(data, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack_fixed`: ``count`` fields as a uint64 array.

    ``np.unpackbits(count=)`` zero-pads a short buffer, so the length is
    checked first: ``data`` must be exactly ``ceil(count * width / 8)``
    bytes.
    """
    dtype = _container(width)
    if len(data) != (count * width + 7) >> 3:
        raise ValueError("fixed-width field buffer has the wrong length")
    fields = np.zeros((count, 8 * dtype.itemsize), dtype=np.uint8)
    fields[:, fields.shape[1] - width:] = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8),
        count=count * width).reshape(count, width)
    return np.packbits(fields).view(dtype).astype(np.uint64)
