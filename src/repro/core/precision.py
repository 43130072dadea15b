"""Amplitude precision modes: c128, c64, and mixed.

MEMQSim's economics are bytes-not-FLOPs: every tier edge (arena transfers,
codec payloads, disk blobs, cache lines) moves amplitudes, so halving the
element size compounds with the codec ratios across the whole hierarchy.
Three modes:

* ``c128`` — ``complex128`` everywhere (the default; bit-identical to the
  pre-precision pipeline).
* ``c64`` — ``complex64`` everywhere: storage, transfers, *and* kernel
  arithmetic. Fastest and smallest; round-off accumulates at float32 eps
  per gate (see :func:`analytic_overlap_bound`).
* ``mixed`` — ``complex64`` **at rest** on every tier edge (store blobs,
  staging buffers, arena views, H2D/D2H) but the kernels upcast each
  group buffer to ``complex128``, apply the fused op batch at full
  precision, and downcast on the way out. One rounding per store/load
  pair instead of one per gate.

A mode is chosen by hand; ``MemQSimConfig`` refuses any other value when
it is built.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PRECISIONS",
    "DEFAULT_PRECISION",
    "storage_dtype",
    "compute_dtype",
    "storage_itemsize",
    "validate_precision",
    "analytic_overlap_bound",
]

#: the precision modes
PRECISIONS = ("c128", "c64", "mixed")
DEFAULT_PRECISION = "c128"

#: float32 unit roundoff — the per-operation error floor of c64 amplitudes
F32_EPS = 2.0 ** -24

_STORAGE = {
    "c128": np.dtype(np.complex128),
    "c64": np.dtype(np.complex64),
    "mixed": np.dtype(np.complex64),
}
_COMPUTE = {
    "c128": np.dtype(np.complex128),
    "c64": np.dtype(np.complex64),
    "mixed": np.dtype(np.complex128),
}


def validate_precision(precision: str) -> str:
    """Check a precision knob value, returning it unchanged."""
    if precision in PRECISIONS:
        return precision
    raise ValueError(
        f"precision must be one of {PRECISIONS}, got {precision!r}")


def storage_dtype(precision: str) -> np.dtype:
    """The dtype amplitudes have *at rest* — store blobs, staging buffers,
    arena views, transfers. ``mixed`` stores ``complex64``."""
    try:
        return _STORAGE[precision]
    except KeyError:
        raise ValueError(
            f"no storage dtype for precision {precision!r}") from None


def compute_dtype(precision: str) -> np.dtype:
    """The dtype kernels accumulate in. ``mixed`` computes ``complex128``."""
    try:
        return _COMPUTE[precision]
    except KeyError:
        raise ValueError(
            f"no compute dtype for precision {precision!r}") from None


def storage_itemsize(precision: str) -> int:
    """Bytes per amplitude at rest (16 for c128, 8 for c64/mixed)."""
    return storage_dtype(precision).itemsize


def analytic_overlap_bound(precision: str, gates_applied: int) -> float:
    """A worst-case lower bound on ``|<psi_c128|psi>|^2`` from rounding.

    Each gate application at float32 perturbs the state by at most a few
    units of roundoff in relative norm; a unitarily-stable pipeline keeps
    the accumulated 2-norm error below ``~k * gates * eps_f32`` with a
    small constant ``k``. The overlap then obeys
    ``|<ref|psi>|^2 >= (1 - err)^2 >= 1 - 2 * err``. ``mixed`` rounds only
    at the store/load boundary (twice per gate *stage*, not per gate), but
    we conservatively charge it the same per-gate budget.

    This is the large-``n`` companion to the measured small-``n`` overlap
    in ``precision_fidelity`` — loose by design, never violated in
    practice.
    """
    if precision == "c128":
        return 1.0
    err = 4.0 * F32_EPS * max(1, int(gates_applied))
    return max(0.0, 1.0 - 2.0 * err)
