"""SZ-style error-bounded lossy compressor for amplitude chunks.

Pipeline (all stages vectorized; see DESIGN.md for the substitution note):

1. split complex128 into the concatenated real/imag float64 planes
   (keeping each plane contiguous preserves smoothness for the delta stage);
2. error-bounded linear-scaling quantization (``quantizer``);
3. exact integer delta coding of the quantization codes — the reversible,
   vectorized equivalent of SZ's first-order Lorenzo predictor;
4. zigzag mapping and an entropy stage: our canonical Huffman coder for
   small/narrow alphabets, zlib on minimal-width integers otherwise;
5. a lossless *raw fallback* whenever the lossy stream would not actually be
   smaller (SZ's unpredictable-data escape, generalized to whole chunks) or
   the bound is too tight for safe integer quantization.

Guarantee: each real and imaginary component of every round-tripped value
differs from the original by at most the *realized* absolute bound (``abs``
mode: the configured bound; ``rel`` mode: ``rel * max|component|`` of that
chunk). The blob header stores the bound the codes were quantised on, which
is that bound shrunk by a relative ``2**-30`` (see ``_STEP_SHRINK``).
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional, Tuple

import numpy as np

from ..memory.bufferpool import scratch_pool
from . import huffman
from .interface import (
    DTYPE_MAGIC,
    Compressor,
    coerce_amplitudes,
    register_compressor,
    split_dtype,
    tag_dtype,
)
from .quantizer import (
    quantize,
    resolve_error_bound,
    unzigzag,
    zigzag,
)

__all__ = ["SZLikeCompressor", "blob_entropy"]

_MAGIC = b"SZL1"
_ADAPTIVE_MAGIC = b"ADP1"  # repro.compression.adaptive wrapper (inner at [5:])
_FLAG_QUANT = 0
_FLAG_RAW = 1

_ENTROPY_ZLIB = 0
_ENTROPY_HUFFMAN = 1

#: With the table-driven decoder (huffman._decode_lut) the entropy stage is
#: vectorized end to end, so Huffman is viable at real chunk sizes — these
#: caps now only guard the O(k log k) code construction and the per-blob
#: symbol table (9 bytes/symbol), not a per-bit Python loop.
_HUFFMAN_MAX_ALPHABET = 1 << 16
_HUFFMAN_MAX_ELEMENTS = 1 << 21

#: The quantisation step is ``2 * eb * _STEP_SHRINK``, a hair inside the
#: configured bound. On the exact ``2 * eb`` lattice a chunk that was decoded
#: from this codec and then mixed by a gate lands on exact half-steps: ``rint``
#: ties, the true error is exactly ``eb``, and product rounding in the
#: reconstruction pushes it ~1 ulp past — so the bound check sent whole
#: high-entropy chunks to the raw escape (4x the bytes). A relative 2**-30
#: of slack is ~1e6 ulp of the largest amplitude, far above that rounding,
#: and costs 1e-9 of the step in precision.
_STEP_SHRINK = 1.0 - 2.0 ** -30


def _minimal_uint(zz: np.ndarray) -> np.ndarray:
    """Downcast zigzag codes to the narrowest dtype that holds the max."""
    mx = int(zz.max()) if zz.size else 0
    if mx < 1 << 8:
        return zz.astype(np.uint8)
    if mx < 1 << 16:
        return zz.astype(np.uint16)
    if mx < 1 << 32:
        return zz.astype(np.uint32)
    return zz.astype(np.uint64)


class SZLikeCompressor(Compressor):
    """Error-bounded lossy compressor (SZ 1-D pipeline analogue)."""

    name = "szlike"

    def __init__(
        self,
        error_bound: float = 1e-6,
        mode: str = "abs",
        entropy: str = "auto",
        zlib_level: int = 1,
    ):
        """Create a compressor.

        Args:
            error_bound: per-component bound (absolute, or relative to the
                chunk's max component magnitude in ``rel`` mode).
            mode: ``"abs"`` or ``"rel"``.
            entropy: ``"zlib"``, ``"huffman"``, or ``"auto"`` (huffman for
                small chunks/alphabets, zlib otherwise).
            zlib_level: zlib level for the entropy/backstop stage.
        """
        if mode not in ("abs", "rel"):
            raise ValueError(f"mode must be abs|rel, got {mode!r}")
        if entropy not in ("zlib", "huffman", "auto"):
            raise ValueError(f"entropy must be zlib|huffman|auto, got {entropy!r}")
        if error_bound <= 0:
            raise ValueError("error_bound must be positive")
        self._eb = float(error_bound)
        self._mode = mode
        self._entropy = entropy
        self._level = int(zlib_level)

    @property
    def is_lossy(self) -> bool:
        return True

    @property
    def error_bound(self) -> float:
        return self._eb

    @property
    def mode(self) -> str:
        return self._mode

    # -- compression ----------------------------------------------------------

    def compress(self, data: np.ndarray) -> bytes:
        data = coerce_amplitudes(data)
        return tag_dtype(self._compress_frame(data), data.dtype)

    def _compress_frame(self, data: np.ndarray) -> bytes:
        n = data.shape[0]
        # The concatenated real/imag planes and the bound-check reconstruction
        # are per-chunk scratch — borrow both from the process scratch pool so
        # repeated chunk passes (and codec workers) recycle the allocations.
        with scratch_pool().borrow(2 * n, np.float64) as planes, \
                scratch_pool().borrow(2 * n, np.float64) as recon:
            np.copyto(planes[:n], data.real)
            np.copyto(planes[n:], data.imag)
            try:
                abs_bound = resolve_error_bound(planes, self._eb, self._mode)
                q = quantize(planes, abs_bound * _STEP_SHRINK)
            except (OverflowError, FloatingPointError):
                return self._raw_blob(data)
            # Verify the *configured* bound against the actual reconstruction
            # (dequantize is deterministic, so the decoder sees exactly these
            # values). Product rounding can still exceed eb for huge code
            # magnitudes (bounds near |x|*ulp); those chunks escape to the
            # exact raw path (SZ's unpredictable-data rule).
            np.multiply(q.codes, 2.0 * q.abs_bound, out=recon)
            np.subtract(planes, recon, out=recon)
            np.abs(recon, out=recon)
            if n and float(recon.max()) > abs_bound:
                return self._raw_blob(data)
            deltas = np.diff(q.codes, prepend=np.int64(0))
        zz = zigzag(deltas)
        payload, entropy_id = self._entropy_encode(zz)
        blob = (
            _MAGIC
            + struct.pack("<BBQd", _FLAG_QUANT, entropy_id, n, q.abs_bound)
            + payload
        )
        if len(blob) >= data.nbytes:
            # Lossy stream failed to beat even uncompressed storage —
            # escape to the lossless fallback (and keep the smaller blob).
            raw = self._raw_blob(data)
            return raw if len(raw) < len(blob) else blob
        return blob

    def _raw_blob(self, data: np.ndarray) -> bytes:
        # Raw bytes stay in the input dtype; the outer dtype tag tells the
        # decoder how to reinterpret them.
        packed = zlib.compress(data.tobytes(), self._level)
        return _MAGIC + struct.pack(
            "<BBQd", _FLAG_RAW, _ENTROPY_ZLIB, data.shape[0], 0.0
        ) + packed

    def _entropy_encode(self, zz: np.ndarray) -> Tuple[bytes, int]:
        if self._entropy == "huffman":
            return huffman.encode(zz.astype(np.int64)), _ENTROPY_HUFFMAN
        narrow = _minimal_uint(zz)
        zpay = struct.pack("<B", narrow.dtype.itemsize) + \
            zlib.compress(narrow.tobytes(), self._level)
        if self._entropy == "auto" and zz.size and \
                zz.size <= _HUFFMAN_MAX_ELEMENTS:
            # One alphabet scan, on the minimal-width array the zlib payload
            # was built from (sorting uint8/uint16 is several times cheaper
            # than int64). Degenerate single-symbol streams stay with zlib
            # (its RLE beats a 1-bit-per-symbol Huffman floor). Otherwise
            # the zeroth-order entropy bound predicts the Huffman payload
            # (n*H/8 data + 9 bytes/symbol table) — only when it is in
            # striking distance of the zlib payload is the encoder actually
            # run, and the exact smaller payload wins, so `auto` is never
            # worse than zlib. The symbol -> index map is derived only then
            # and handed to the encoder, so the stream is not sorted twice.
            symbols, freqs = np.unique(narrow, return_counts=True)
            if 2 <= symbols.size <= _HUFFMAN_MAX_ALPHABET:
                p = freqs / zz.size
                h_bits = float(-(p * np.log2(p)).sum())
                est = zz.size * h_bits / 8 + 9 * symbols.size + 16
                if est <= len(zpay) * 1.05:
                    inverse = np.searchsorted(symbols, narrow)
                    hpay = huffman.encode(
                        narrow, alphabet=(symbols, inverse, freqs))
                    if len(hpay) <= len(zpay):
                        return hpay, _ENTROPY_HUFFMAN
        return zpay, _ENTROPY_ZLIB

    # -- decompression -----------------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        dtype, blob = split_dtype(blob)
        if blob[:4] != _MAGIC:
            raise ValueError("not an SZL1 blob")
        flag, entropy_id, n, abs_bound = struct.unpack_from("<BBQd", blob, 4)
        payload = blob[4 + struct.calcsize("<BBQd"):]
        if flag == _FLAG_RAW:
            raw = zlib.decompress(payload)
            return np.frombuffer(raw, dtype=dtype, count=n).copy()
        zz = self._entropy_decode(payload, entropy_id, 2 * n)
        deltas = unzigzag(zz)
        codes = np.cumsum(deltas, dtype=np.int64)
        # Building directly in the target dtype lets the component
        # assignments below do the (single) float64 -> float32 downcast.
        out = np.empty(n, dtype=dtype)
        # Same arithmetic as quantizer.dequantize (codes -> float64, one
        # product), but into a pooled plane buffer and then component-wise
        # into the output, skipping the intermediate complex temporaries.
        with scratch_pool().borrow(2 * n, np.float64) as planes:
            np.multiply(codes, 2.0 * abs_bound, out=planes)
            out.real = planes[:n]
            out.imag = planes[n:]
        return out

    def _entropy_decode(self, payload: bytes, entropy_id: int, count: int) -> np.ndarray:
        if entropy_id == _ENTROPY_HUFFMAN:
            vals = huffman.decode(payload)
            if vals.shape[0] != count:
                raise ValueError("huffman stream length mismatch")
            return vals.view(np.uint64) if vals.dtype == np.int64 else vals
        width = payload[0]
        dtype = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}[width]
        raw = zlib.decompress(payload[1:])
        return np.frombuffer(raw, dtype=dtype, count=count).astype(np.uint64)


def blob_entropy(blob: bytes) -> Optional[str]:
    """Sniff the entropy stage of an SZL1 blob from its header.

    Returns ``"huffman"``, ``"zlib"``, or ``"raw"`` (the lossless escape);
    ``None`` when the blob is not SZL1-framed. Adaptive-compressor wrappers
    (``ADP1`` magic + tag byte) and dtype tags (``DTP1`` + tag byte) are
    looked through, in any nesting order, so the chunk store can attribute
    entropy choices without decompressing anything.
    """
    while blob[:4] in (_ADAPTIVE_MAGIC, DTYPE_MAGIC):
        blob = blob[5:]
    if blob[:4] != _MAGIC or len(blob) < 6:
        return None
    flag, entropy_id = blob[4], blob[5]
    if flag == _FLAG_RAW:
        return "raw"
    return "huffman" if entropy_id == _ENTROPY_HUFFMAN else "zlib"


register_compressor(
    "szlike",
    lambda error_bound=1e-6, mode="abs", entropy="auto", zlib_level=1: SZLikeCompressor(
        error_bound=error_bound, mode=mode, entropy=entropy, zlib_level=zlib_level
    ),
)
