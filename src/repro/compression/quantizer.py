"""Error-bounded linear-scaling quantization.

The lossy stage of the SZ-like pipeline. For an absolute error bound ``eb``:

    code_i = round(x_i / (2*eb))          (vectorized)
    x̂_i   = 2*eb * code_i                 (vectorized)

which guarantees ``|x_i - x̂_i| <= eb`` exactly in IEEE double as long as the
quotient stays within the rounding-safe integer range.

The quantizer is decoupled from prediction: the caller delta-encodes the
*integer codes* (exact, reversible), which plays the role of SZ's Lorenzo
predictor while keeping both directions fully vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "quantize",
    "dequantize",
    "QuantizeResult",
    "zigzag",
    "unzigzag",
    "MAX_SAFE_CODE",
]

#: codes above this magnitude risk float rounding artefacts; callers fall
#: back to lossless storage instead (SZ's "unpredictable data" escape).
MAX_SAFE_CODE = 1 << 52


@dataclass(frozen=True)
class QuantizeResult:
    """Codes plus the absolute bound that was actually applied."""

    codes: np.ndarray  # int64
    abs_bound: float


def scaled_codes(data: np.ndarray, abs_bound: float, out: np.ndarray):
    """``out[:] = rint(data / (2 * abs_bound))``; returns ``(min, max)`` as ints.

    The codes stay float64 (exact integers: the range check caps them at
    :data:`MAX_SAFE_CODE`), so a caller can reconstruct from them without
    a cast. Division by a positive step is monotone, so the quotients'
    extremes are the extremes' quotients: they are checked before the
    array is divided, which then cannot overflow. NaN propagates through
    both reductions and infinity is their own value, so a single
    comparison of the larger magnitude covers non-finite input and
    overflow alike.

    Raises:
        FloatingPointError: a quotient is NaN or infinite.
        OverflowError: a quotient exceeds :data:`MAX_SAFE_CODE`.
    """
    if not data.size:
        return 0, 0
    step = 2.0 * abs_bound
    lo = float(np.minimum.reduce(data)) / step
    hi = float(np.maximum.reduce(data)) / step
    top = max(-lo, hi)
    if not top <= MAX_SAFE_CODE:
        if top < np.inf:
            raise OverflowError(
                "quantization codes exceed the safe integer range")
        raise FloatingPointError("non-finite values reached the quantizer")
    np.divide(data, step, out=out)
    np.rint(out, out=out)
    # rint is monotone and rounds like round(): the extremes of the codes
    # are the rounded extremes of the quotients.
    return round(lo), round(hi)


def quantize(data: np.ndarray, abs_bound: float) -> QuantizeResult:
    """Quantize real float64 data under an absolute bound (vectorized)."""
    codes = np.empty(data.shape, dtype=np.float64)
    scaled_codes(data, abs_bound, codes)
    return QuantizeResult(codes=codes.astype(np.int64),
                          abs_bound=float(abs_bound))


def dequantize(codes: np.ndarray, abs_bound: float) -> np.ndarray:
    """Reconstruct float64 values from codes (vectorized)."""
    return codes.astype(np.float64) * (2.0 * abs_bound)


def zigzag(values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Map signed int64 to unsigned (0,-1,1,-2,.. -> 0,1,2,3,..).

    ``out`` (int64, may be ``values`` itself) receives the result; the
    returned array is its uint64 view.
    """
    v = values.astype(np.int64, copy=False)
    sign = v >> 63
    out = np.left_shift(v, 1, out=out)
    np.bitwise_xor(out, sign, out=out)
    return out.view(np.uint64)


def unzigzag(values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Inverse of :func:`zigzag`.

    ``out`` (uint64, may be ``values`` itself) receives the result; the
    returned array is its int64 view.
    """
    u = values.astype(np.uint64, copy=False)
    sign = (u & np.uint64(1)).view(np.int64)
    np.negative(sign, out=sign)
    out = np.right_shift(u, np.uint64(1), out=out).view(np.int64)
    np.bitwise_xor(out, sign, out=out)
    return out
