"""SZ-style error-bounded lossy compressor for amplitude chunks.

Pipeline (all stages vectorized; see DESIGN.md for the substitution note):

1. split complex128 into the concatenated real/imag float64 planes
   (keeping each plane contiguous preserves smoothness for the delta stage);
2. error-bounded linear-scaling quantization (``quantizer``), verified
   against the configured bound on the decoder's exact reconstruction;
3. exact integer delta coding of the quantization codes — the reversible,
   vectorized equivalent of SZ's first-order Lorenzo predictor — unless the
   chunk's codes are noise, which a predictor only widens;
4. zigzag mapping and one of two entropy stages: fixed-length bit packing
   for noise (nothing to model, so nothing is deflated), zlib on
   minimal-width integers otherwise;
5. a lossless *raw fallback* whenever the lossy stream would not actually be
   smaller (SZ's unpredictable-data escape, generalized to whole chunks) or
   the bound is too tight for safe integer quantization.

A chunk that repeats one amplitude bit for bit skips all five: it is
stored as that amplitude, exactly (the uniform frame, SZL1 flag 2), as SZ
and ZFP store a constant block as its value.

Steps 1-3 are one fused pass over pooled scratch planes: at chunk sizes
that live in cache the cost is numpy calls, not bytes, so each call
borrows its scratch once, casts its integer stream once, and decodes
straight into the output array.

Guarantee: each real and imaginary component of every round-tripped value
differs from the original by at most the configured absolute bound. The
blob header stores the bound the codes were quantised on, which is that
bound shrunk by a relative ``2**-30`` (see ``_STEP_SHRINK``). The zlib
stages (entropy and raw escape) run at level 1.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import Optional

import numpy as np

from ..memory.bufferpool import scratch_pool
from .bitstream import pack_fixed, unpack_fixed
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
from .quantizer import scaled_codes

__all__ = ["SZLikeCompressor", "blob_entropy"]

_MAGIC = b"SZL1"
_HEADER = struct.Struct("<BBQd")  # flag, entropy id, amplitudes, bound
_PAYLOAD_AT = len(_MAGIC) + _HEADER.size
_FLAG_QUANT = 0
_FLAG_RAW = 1
#: one exact amplitude, repeated: entropy id 0, bound field 0.0
_FLAG_UNIFORM = 2

_ENTROPY_ZLIB = 0
_ENTROPY_FIXED = 2
#: the zlib stage's width byte -> the integer type its codes were narrowed to
_ZLIB_WIDTHS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}
#: the level of every zlib stage (entropy and raw escape); fixed, not
#: configured: the recorded blobs were all written at it
_ZLIB_LEVEL = 1

#: The quantisation step is ``2 * eb * _STEP_SHRINK``, a hair inside the
#: configured bound. On the exact ``2 * eb`` lattice a chunk that was decoded
#: from this codec and then mixed by a gate lands on exact half-steps: ``rint``
#: ties, the true error is exactly ``eb``, and product rounding in the
#: reconstruction pushes it ~1 ulp past — so the bound check sent whole
#: high-entropy chunks to the raw escape (4x the bytes). A relative 2**-30
#: of slack is ~1e6 ulp of the largest amplitude, far above that rounding,
#: and costs 1e-9 of the step in precision.
_STEP_SHRINK = 1.0 - 2.0 ** -30

#: `auto` takes the fixed-length stage when the chunk itself says its codes
#: are noise — no state carried between chunks, so a codec lane and the
#: serial loop decide alike (DESIGN.md "The fixed-length stage"). All three
#: must hold. Multi-byte: the zigzagged deltas need more than
#: ``_FIXED_MIN_DELTA_WIDTH`` bits — on one-byte symbols deflate's literal
#: Huffman is a real order-0 entropy coder and beats bit packing. Wide
#: alphabet: at least ``_FIXED_MIN_DISTINCT`` of the first ``_FIXED_PROBE``
#: deltas are distinct, which no run-length or few-symbol stream is. Full:
#: bit packing wastes exactly each symbol's leading zeros, and in *both*
#: streams (codes: zeros, sparsity; deltas: smoothness) the average symbol
#: has at most ``_FIXED_MAX_SLACK`` of them.
_FIXED_MIN_DELTA_WIDTH = 8
_FIXED_PROBE = 64
_FIXED_MIN_DISTINCT = 48
_FIXED_MAX_SLACK = 5


_MIN = np.minimum.reduce
_MAX = np.maximum.reduce


def _minimal_uint(zz: np.ndarray) -> np.ndarray:
    """Downcast zigzag codes to the narrowest dtype that holds the max."""
    mx = int(_MAX(zz)) if zz.size else 0
    if mx < 1 << 8:
        return zz.astype(np.uint8)
    if mx < 1 << 16:
        return zz.astype(np.uint16)
    if mx < 1 << 32:
        return zz.astype(np.uint32)
    return zz.astype(np.uint64)


def _zlib_stage(zz: np.ndarray) -> bytes:
    """The zlib stage's payload: the zigzag symbols (uint64) narrowed to the
    smallest integer type that holds them, its width in the first byte,
    then deflated."""
    narrow = _minimal_uint(zz)
    return struct.pack("<B", narrow.dtype.itemsize) + \
        zlib.compress(narrow, _ZLIB_LEVEL)


def _delta(codes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """First differences of ``codes`` (the first one kept), into ``out``."""
    out[0] = codes[0]
    np.subtract(codes[1:], codes[:-1], out=out[1:])
    return out


# The integer stream is kept doubled: ``w = 2 * v`` is the zigzag map's
# shift, made by the float -> int64 cast on the way in and undone by the
# step product on the way out (2v * b == v * 2b exactly: |v| <= 2**52).
_SIGN = np.array(63, dtype=np.int64)


def _doubled(exact: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``2 * exact`` (integer-valued float64) cast into int64 ``out``."""
    return np.multiply(exact, 2.0, out=out, casting="unsafe")


def _zigzag_doubled(w: np.ndarray) -> np.ndarray:
    """Zigzag symbols of ``v`` from ``w = 2 * v``, in place: ``w ^ (w >> 63)``
    (uint64 view)."""
    np.bitwise_xor(w, np.right_shift(w, _SIGN), out=w)
    return w.view(np.uint64)


def _unzigzag_doubled(zz: np.ndarray) -> np.ndarray:
    """``2 * v`` from zigzag symbols, in place: ``zz ^ -(zz & 1)`` (int64
    view)."""
    w = zz.view(np.int64)
    mask = np.left_shift(w, _SIGN)
    np.bitwise_xor(w, np.right_shift(mask, _SIGN, out=mask), out=w)
    return w


def _zigzag_width(lo: int, hi: int) -> int:
    """Bits of the largest zigzag symbol of a stream spanning ``[lo, hi]``."""
    return max(2 * hi, -2 * lo - 1, 1).bit_length()


class SZLikeCompressor(Compressor):
    """Error-bounded lossy compressor (SZ 1-D pipeline analogue)."""

    name = "szlike"

    def __init__(self, error_bound: float = 1e-6, entropy: str = "auto"):
        """Create a compressor.

        Args:
            error_bound: absolute per-component bound.
            entropy: ``"auto"`` (fixed-length packing for noise-like
                codes, zlib otherwise) or ``"zlib"`` (zlib always). The
                registry's factory always builds ``auto``; the forced-zlib
                stage is the twin tests compare it against.
        """
        if entropy not in ("zlib", "auto"):
            raise ValueError(f"entropy must be zlib|auto, got {entropy!r}")
        self._eb = float(error_bound)
        if not 0 < self._eb < math.inf:
            raise ValueError(
                f"error_bound must be finite and positive, got {error_bound!r}")
        self._entropy = entropy

    @property
    def is_lossy(self) -> bool:
        return True

    @property
    def error_bound(self) -> float:
        return self._eb

    # -- compression ----------------------------------------------------------

    def compress(self, data: np.ndarray) -> bytes:
        data = coerce_amplitudes(data)
        return self._compress_frame(data, dtype_tag(data.dtype))

    def _compress_frame(self, data: np.ndarray, tag: bytes) -> bytes:
        n = data.shape[0]
        if n == 0:
            return self._raw_blob(data, tag)
        amplitude = uniform_amplitude(data)
        if amplitude is not None:
            return b"".join((tag, _MAGIC, _HEADER.pack(
                _FLAG_UNIFORM, _ENTROPY_ZLIB, n, 0.0), amplitude))
        m = 2 * n
        # One pass over four per-chunk scratch planes (one borrow, so
        # repeated chunk passes and codec lanes recycle one allocation):
        # the real/imag planes (then the integer stream), the float codes,
        # a plane that holds the bound-check residual and then the float
        # deltas, and a spare one. A 4 KiB chunk lives in cache; what this
        # path pays for is calls, not bytes.
        with scratch_pool().borrow(4 * m, np.float64) as scratch:
            planes, scaled, deltas = \
                scratch[:m], scratch[m:2 * m], scratch[2 * m:3 * m]
            # Keeping each plane contiguous preserves smoothness for the
            # delta stage; the strided copy is also the c64 -> f64 upcast,
            # which quiets a signaling NaN (such a chunk escapes to raw
            # below, so its bits survive).
            with np.errstate(invalid="ignore"):
                np.copyto(planes.reshape(2, n),
                          data.view(data.real.dtype).reshape(n, 2).T)
            try:
                step_bound = self._eb * _STEP_SHRINK
                lo, hi = scaled_codes(planes, step_bound, scaled)
            except (OverflowError, FloatingPointError):
                return self._raw_blob(data, tag)
            # Verify the *configured* bound against the actual reconstruction
            # (the decoder multiplies the same integers by the same step, so
            # it sees exactly these values). Product rounding can still
            # exceed eb for huge code magnitudes (bounds near |x|*ulp); those
            # chunks escape to the exact raw path (SZ's unpredictable-data
            # rule).
            np.multiply(scaled, 2.0 * step_bound, out=deltas)
            np.subtract(planes, deltas, out=deltas)
            np.abs(deltas, out=deltas)
            if float(_MAX(deltas)) > self._eb:
                return self._raw_blob(data, tag)
            # Exact integer delta coding — the reversible, vectorized
            # equivalent of SZ's first-order Lorenzo predictor — computed
            # on the float codes (exact: |code| <= 2**52) and cast once.
            _delta(scaled, deltas)
            payload, entropy_id = self._encode_codes(
                scratch[m:3 * m], planes.view(np.int64), scratch[3 * m:],
                lo, hi)
        size = _PAYLOAD_AT + sum(map(len, payload))
        if size >= data.nbytes:
            # Lossy stream failed to beat even uncompressed storage —
            # escape to the lossless fallback (and keep the smaller blob).
            raw = self._raw_blob(data, tag)
            if len(raw) - len(tag) < size:
                return raw
        return b"".join((tag, _MAGIC,
                         _HEADER.pack(_FLAG_QUANT, entropy_id, n, step_bound),
                         *payload))

    def _raw_blob(self, data: np.ndarray, tag: bytes) -> bytes:
        # Raw bytes stay in the input dtype; the outer dtype tag tells the
        # decoder how to reinterpret them.
        return b"".join((tag, _MAGIC, _HEADER.pack(
            _FLAG_RAW, _ENTROPY_ZLIB, data.shape[0], 0.0),
            zlib.compress(data, _ZLIB_LEVEL)))

    def _encode_codes(self, floats: np.ndarray, stream: np.ndarray,
                      spare: np.ndarray, lo: int, hi: int):
        """Pick and run the entropy stage; returns ``(payload parts, id)``.

        ``floats`` is two float64 planes, the codes and their deltas (exact
        integers); ``lo`` / ``hi`` are the codes' extremes (the range check
        already has them). The integer stream is cast, doubled, into the
        int64 ``stream`` plane; ``spare`` is one more plane of scratch.
        Everything passed in is consumed.
        """
        m = stream.shape[0]
        codes, deltas = floats[:m], floats[m:]
        # The wide-alphabet test first: it is the cheap one, and a
        # structured chunk fails it before the deltas' two reductions.
        if self._entropy == "auto" and len(set(
                deltas[:_FIXED_PROBE].tolist())) >= _FIXED_MIN_DISTINCT:
            delta_width = _zigzag_width(int(_MIN(deltas)), int(_MAX(deltas)))
            if delta_width > _FIXED_MIN_DELTA_WIDTH:
                # SZ's unpredictable-data rule at chunk granularity: on
                # noise the delta of iid codes is a bit *wider* than the
                # codes, so the predictor is kept only where it narrows
                # the stream.
                width = _zigzag_width(lo, hi)
                predicted = delta_width < width
                if predicted:
                    width = delta_width
                _doubled(deltas if predicted else codes, stream)
                # frexp's exponent of an integer-valued float is its bit
                # length: exact, so the choice is the same on every host.
                lengths = np.frexp(floats, out=(floats, spare.view(
                    np.intc)[:2 * m]))[1]
                used = min(np.add.reduce(lengths.reshape(2, m),
                                         axis=1).tolist())
                if m * (width - 1 - _FIXED_MAX_SLACK) <= used:
                    zz = _zigzag_doubled(stream)
                    return (bytes((width, predicted)),
                            pack_fixed(zz, width)), _ENTROPY_FIXED
                if not predicted:
                    stream = _delta(stream, spare.view(np.int64))
                return (_zlib_stage(_zigzag_doubled(stream)),), _ENTROPY_ZLIB
        zz = _zigzag_doubled(_doubled(deltas, stream))
        return (_zlib_stage(zz),), _ENTROPY_ZLIB

    # -- decompression -----------------------------------------------------------

    def decompress(self, blob: bytes,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
        dtype, at = frame_dtype(blob)
        if blob[at:at + 4] != _MAGIC:
            raise ValueError("not an SZL1 blob")
        flag, entropy_id, n, step_bound = _HEADER.unpack_from(blob, at + 4)
        # A byte this build does not define fails here; it is never read
        # as the nearest stage that is defined.
        if flag not in (_FLAG_QUANT, _FLAG_RAW, _FLAG_UNIFORM):
            raise ValueError(f"unknown SZL1 frame flag {flag}")
        if flag != _FLAG_QUANT and entropy_id != _ENTROPY_ZLIB:
            raise ValueError(
                f"SZL1 frame flag {flag} with entropy stage {entropy_id}")
        payload = memoryview(blob)[at + _PAYLOAD_AT:]
        if flag == _FLAG_UNIFORM:
            if step_bound != 0.0:
                raise ValueError(f"SZL1 uniform frame with bound {step_bound}")
            return fill_uniform(payload, dtype, n, out)
        out = decode_target(out, dtype, n)
        if flag == _FLAG_RAW:
            out[:] = np.frombuffer(inflate_exact(payload, n * dtype.itemsize),
                                   dtype=dtype)
            return out
        with scratch_pool().borrow(2 * n, np.int64) as doubled:
            doubled = self._decode_codes(payload, entropy_id, doubled)
            # The value quantizer.dequantize gives (code * 2b, in float64),
            # as (2 * code) * b, written straight through a real view of the
            # output: a complex64 output rounds each product to float32.
            np.multiply(doubled.reshape(2, n), step_bound, dtype=np.float64,
                        out=out.view(out.real.dtype).reshape(n, 2).T)
        return out

    def _decode_codes(self, payload, entropy_id: int,
                      out: np.ndarray) -> np.ndarray:
        """Entropy-decode the quantisation codes, doubled (int64), into
        ``out``."""
        count = out.shape[0]
        if entropy_id == _ENTROPY_FIXED:
            if len(payload) < 2 or payload[1] > 1:
                raise ValueError("malformed fixed-length payload")
            zz = unpack_fixed(payload[2:], count, payload[0],
                              out=out.view(np.uint64))
            doubled = _unzigzag_doubled(zz)
            return np.cumsum(doubled, out=doubled) if payload[1] else doubled
        if entropy_id != _ENTROPY_ZLIB:
            raise ValueError(f"unknown SZL1 entropy stage {entropy_id}")
        width = payload[0]
        if width not in _ZLIB_WIDTHS:
            raise ValueError(f"unknown SZL1 zlib-stage width {width}")
        raw = inflate_exact(payload[1:], count * width)
        zz = out.view(np.uint64)
        np.copyto(zz, np.frombuffer(raw, dtype=_ZLIB_WIDTHS[width]))
        doubled = _unzigzag_doubled(zz)
        return np.cumsum(doubled, out=doubled)


_ENTROPY_NAMES = {_ENTROPY_ZLIB: "zlib", _ENTROPY_FIXED: "fixed"}
#: the frames that code no quantised stream, by flag
_FLAG_NAMES = {_FLAG_RAW: "raw", _FLAG_UNIFORM: "uniform"}


def blob_entropy(blob: bytes) -> Optional[str]:
    """Sniff the entropy stage of an SZL1 blob from its header.

    Returns ``"zlib"``, ``"fixed"``, ``"raw"`` (the lossless escape) or
    ``"uniform"`` (one exact amplitude, repeated); ``None`` when the blob
    is not SZL1-framed or names a frame or stage this build does not know
    (the decoder refuses those, entropy id 1 among them: it was the
    Huffman stage, which is deleted).
    A dtype tag (``DTP1`` + tag byte) is looked through, so the chunk
    store can attribute entropy choices without decompressing anything.
    """
    if blob[:4] == DTYPE_MAGIC:
        blob = blob[5:]
    if blob[:4] != _MAGIC or len(blob) < 6:
        return None
    flag, entropy_id = blob[4], blob[5]
    if flag in _FLAG_NAMES:
        return _FLAG_NAMES[flag] if entropy_id == _ENTROPY_ZLIB else None
    return _ENTROPY_NAMES.get(entropy_id) if flag == _FLAG_QUANT else None


register_compressor(
    "szlike",
    lambda error_bound=1e-6: SZLikeCompressor(error_bound=error_bound))
