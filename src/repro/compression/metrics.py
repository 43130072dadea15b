"""Compression quality metrics.

Used by the compressor benchmarks (A2) and the fidelity analysis: ratio,
per-component error statistics, PSNR, and the analytic link between a
per-component error bound and worst-case state-vector perturbation — which
is what turns "error bound eb" into "fidelity >= ..." statements in
EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .interface import Compressor

__all__ = [
    "CompressionReport",
    "evaluate_compressor",
    "compression_ratio",
    "max_component_error",
    "psnr",
    "norm_error_bound",
    "fidelity_floor",
]


def compression_ratio(original_nbytes: int, compressed_nbytes: int) -> float:
    """Original/compressed; > 1 means the codec helped."""
    if compressed_nbytes <= 0:
        raise ValueError("compressed size must be positive")
    return original_nbytes / compressed_nbytes


def max_component_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max over elements of max(|d.real|, |d.imag|) — the bound SZ promises."""
    d = a - b
    if d.size == 0:
        return 0.0
    return float(np.max(np.maximum(np.abs(d.real), np.abs(d.imag))))


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak SNR in dB over the real/imag component planes."""
    d = a - b
    mse = float(np.mean(d.real**2 + d.imag**2) / 2.0) if d.size else 0.0
    if mse == 0.0:
        return math.inf
    peak = float(np.max(np.maximum(np.abs(a.real), np.abs(a.imag)))) if a.size else 1.0
    if peak == 0.0:
        peak = 1.0
    return 10.0 * math.log10(peak * peak / mse)


def norm_error_bound(eb: float, num_amplitudes: int) -> float:
    """Worst-case l2 perturbation of a state from a per-component bound.

    Each amplitude moves by at most ``eb`` in each of two components, i.e.
    ``sqrt(2)*eb`` in modulus; over ``N`` amplitudes the l2 shift is at most
    ``sqrt(2*N)*eb``.
    """
    return math.sqrt(2.0 * num_amplitudes) * eb


def fidelity_floor(eb: float, num_amplitudes: int) -> float:
    """Lower bound on ``|<psi|psi_hat>|^2`` after renormalization.

    For a normalized state perturbed by ``delta`` with ``||delta||_2 = d``,
    the renormalized fidelity is at least ``((1 - d)/(1 + d))^2`` when
    ``d < 1`` (worst case: the perturbation is anti-aligned and inflates the
    norm). Returns 0 when the bound is vacuous.
    """
    d = norm_error_bound(eb, num_amplitudes)
    if d >= 1.0:
        return 0.0
    return ((1.0 - d) / (1.0 + d)) ** 2


@dataclass
class CompressionReport:
    """One codec evaluated on one buffer."""

    compressor: str
    original_nbytes: int
    compressed_nbytes: int
    ratio: float
    max_error: float
    psnr_db: float
    compress_seconds: float
    decompress_seconds: float
    bound_respected: bool

    def row(self) -> str:
        b = "yes" if self.bound_respected else "NO"
        p = "inf" if math.isinf(self.psnr_db) else f"{self.psnr_db:.1f}"
        return (
            f"{self.compressor:<14} {self.ratio:>8.2f}x {self.max_error:>12.3e} "
            f"{p:>8} {self.compress_seconds*1e3:>9.2f}ms "
            f"{self.decompress_seconds*1e3:>9.2f}ms  bound:{b}"
        )


def evaluate_compressor(comp: Compressor, data: np.ndarray) -> CompressionReport:
    """Round-trip ``data`` through ``comp`` and measure everything."""
    import time

    t0 = time.perf_counter()
    blob = comp.compress(data)
    t1 = time.perf_counter()
    back = comp.decompress(blob)
    t2 = time.perf_counter()
    err = max_component_error(data, back)
    bound_ok = err <= comp.error_bound * (1 + 1e-9) if comp.is_lossy \
        else err == 0.0
    return CompressionReport(
        compressor=comp.describe(),
        original_nbytes=data.nbytes,
        compressed_nbytes=len(blob),
        ratio=compression_ratio(data.nbytes, len(blob)),
        max_error=err,
        psnr_db=psnr(data, back),
        compress_seconds=t1 - t0,
        decompress_seconds=t2 - t1,
        bound_respected=bound_ok,
    )
