"""The fixed-length entropy stage: every field packed in the same width.

:func:`pack_fixed` packs the low ``width`` bits of each value of a numpy
array, MSB-first, and :func:`unpack_fixed` reads them back; both are
vectorized over whole arrays.
"""

from __future__ import annotations

import functools
import sys
from typing import Optional

import numpy as np

__all__ = ["pack_fixed", "unpack_fixed"]

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
