"""Bit-level I/O used by the canonical Huffman coder.

:class:`BitWriter` accumulates variable-width big-endian bit fields into a
``bytearray``; :class:`BitReader` plays them back. Both are deliberately
simple (per-call Python) — bulk symbol streams go through the *vectorized*
pack/unpack helpers, which operate on whole numpy arrays at once.
"""

from __future__ import annotations

import functools
import sys
from typing import Optional, Tuple

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

_LITTLE_ENDIAN = sys.byteorder == "little"

#: widest field the window gathers below handle; wider ones (codes past
#: 2**31, which only a bound near an amplitude's ulp produces) go through
#: the one-byte-per-bit matrix
_WINDOW_MAX_WIDTH = 32


def _container(width: int) -> np.dtype:
    if not 1 <= width <= 64:
        raise ValueError(f"field width {width} outside 1..64")
    return _FIELD_DTYPES[(width - 1) >> 3]


_U64 = np.dtype(np.uint64)

#: groups of 8 fields one gather plan covers; longer streams are walked a
#: block at a time, so a plan stays small (4,096 fields) whatever the chunk
_BLOCK_GROUPS = 512


def _frozen(*arrays):
    for array in arrays:  # a plan is shared by every caller
        array.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=None)
def _pack_plan(width: int):
    """Where every output byte of a block comes from.

    8 fields fill exactly ``width`` bytes. Output byte ``p`` starts in
    field ``first[p]`` and spans at most ``span`` fields; those fields,
    concatenated in a uint64, hold it ``shift[p]`` bits up. The width is a
    0-d uint64 array and the shifts uint64, so the ufuncs take them without
    converting a Python scalar.
    """
    span = -(-(width + 7) // width)
    bit = np.arange(_BLOCK_GROUPS * width, dtype=np.int64) * 8
    first = bit // width
    shift = (span * width + first * width - bit - 8).astype(_U64)
    return (span, *_frozen(np.array(width, dtype=_U64), first, shift))


@functools.lru_cache(maxsize=None)
def _unpack_plan(width: int):
    """Where every field of a block sits: field ``i`` starts in byte
    ``byte[i]``, and the big-endian uint64 read there holds it ``shift[i]``
    bits up, under ``mask``."""
    bit = np.arange(_BLOCK_GROUPS * 8, dtype=np.int64) * width
    return _frozen(bit >> 3, (64 - (bit & 7) - width).astype(_U64),
                   np.array((1 << width) - 1, dtype=_U64))


def pack_fixed(values: np.ndarray, width: int) -> bytes:
    """Vectorized: the low ``width`` bits of every value, MSB-first, packed.

    Every value must fit in ``width`` bits. ``ceil(n * width / 8)`` bytes,
    the last one zero-padded.
    """
    dtype = _container(width)
    count = values.shape[0]
    nbytes = (count * width + 7) >> 3
    if width > _WINDOW_MAX_WIDTH:
        bits = np.unpackbits(values.astype(dtype).view(np.uint8)).reshape(
            count, -1)
        return np.packbits(bits[:, bits.shape[1] - width:]).tobytes()
    span, step, first, shift = _pack_plan(width)
    values = values.astype(_U64, copy=False)
    # Each output byte is cut from the window of the `span` fields it
    # touches; past the last field the window reads zeros.
    window = np.left_shift(values, step)
    np.bitwise_or(window[:-1], values[1:], out=window[:-1])
    for k in range(2, span):
        np.left_shift(window, step, out=window)
        np.bitwise_or(window[:-k], values[k:], out=window[:-k])
    block = _BLOCK_GROUPS * width
    pieces = []
    for at in range(0, nbytes, block):
        size = min(block, nbytes - at)
        # a block of groups starts at field 8 * at / width
        cut = window[at * 8 // width:].take(first[:size])
        np.right_shift(cut, shift[:size], out=cut)
        pieces.append(cut.astype(np.uint8))
    return b"".join(pieces)


def unpack_fixed(data, count: int, width: int,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Inverse of :func:`pack_fixed`: ``count`` fields as a uint64 array.

    ``out`` (``count`` uint64, optional) receives them. ``data`` must be
    exactly ``ceil(count * width / 8)`` bytes.
    """
    dtype = _container(width)
    nbytes = (count * width + 7) >> 3
    if len(data) != nbytes:
        raise ValueError("fixed-width field buffer has the wrong length")
    if out is None:
        out = np.empty(count, dtype=_U64)
    if width > _WINDOW_MAX_WIDTH:
        fields = np.zeros((count, 8 * dtype.itemsize), dtype=np.uint8)
        fields[:, fields.shape[1] - width:] = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8),
            count=count * width).reshape(count, width)
        np.copyto(out, np.packbits(fields).view(dtype))
        return out
    byte, shift, mask = _unpack_plan(width)
    # The big-endian word read at each field's first byte holds the whole
    # field; 8 zero bytes keep the last words inside the buffer.
    padded = b"".join((data, bytes(8)))
    words = np.ndarray((nbytes + 1,), dtype=_U64, buffer=padded,
                       strides=(1,))
    block = _BLOCK_GROUPS * 8
    for at in range(0, count, block):
        size = min(block, count - at)
        fields = out[at:at + size]
        # A block of fields starts at byte at * width / 8. `take` copies a
        # strided source to a contiguous one first, so it gets only the
        # words of this block.
        start = at * width // 8
        words[start:start + byte[size - 1] + 1].take(byte[:size], out=fields)
        if _LITTLE_ENDIAN:
            fields.byteswap(inplace=True)
        np.right_shift(fields, shift[:size], out=fields)
        np.bitwise_and(fields, mask, out=fields)
    return out
