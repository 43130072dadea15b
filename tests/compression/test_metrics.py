"""Unit tests for compression metrics and the fidelity floor."""

import math

import numpy as np
import pytest

from repro.compression import (
    ZlibCompressor,
    compression_ratio,
    evaluate_compressor,
    fidelity_floor,
    get_compressor,
    max_component_error,
    norm_error_bound,
    psnr,
)


class TestBasics:
    def test_compression_ratio(self):
        assert compression_ratio(100, 25) == 4.0

    def test_zero_compressed_rejected(self):
        with pytest.raises(ValueError):
            compression_ratio(100, 0)

    def test_max_component_error_zero(self):
        x = np.array([1 + 1j, 2 - 2j])
        assert max_component_error(x, x.copy()) == 0.0

    def test_max_component_error_picks_worst_component(self):
        a = np.array([1.0 + 1.0j])
        b = np.array([1.1 + 0.7j])
        assert max_component_error(a, b) == pytest.approx(0.3)

    def test_max_component_error_empty(self):
        e = np.empty(0, dtype=complex)
        assert max_component_error(e, e) == 0.0

    def test_psnr_infinite_for_identical(self):
        x = np.array([0.5 + 0.5j])
        assert math.isinf(psnr(x, x.copy()))

    def test_psnr_decreases_with_noise(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        small = psnr(x, x + 1e-6)
        big = psnr(x, x + 1e-2)
        assert small > big


class TestFidelityFloor:
    def test_norm_error_bound_formula(self):
        assert norm_error_bound(1e-3, 1024) == pytest.approx(
            math.sqrt(2 * 1024) * 1e-3
        )

    def test_floor_tends_to_one_for_tiny_eb(self):
        assert fidelity_floor(1e-12, 1 << 20) > 0.999999

    def test_floor_zero_when_vacuous(self):
        assert fidelity_floor(1.0, 1 << 20) == 0.0

    def test_floor_monotone_in_eb(self):
        f = [fidelity_floor(eb, 4096) for eb in (1e-8, 1e-6, 1e-4)]
        assert f[0] >= f[1] >= f[2]

    def test_floor_is_actually_a_lower_bound(self):
        # Perturb a random normalized state adversarially within the bound
        # and check realized fidelity >= floor.
        rng = np.random.default_rng(1)
        n = 1 << 10
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi /= np.linalg.norm(psi)
        eb = 1e-4
        delta = eb * (np.sign(rng.standard_normal(n)) + 1j * np.sign(rng.standard_normal(n)))
        phi = psi + delta
        f = abs(np.vdot(psi, phi / np.linalg.norm(phi))) ** 2
        assert f >= fidelity_floor(eb, n) - 1e-12


class TestEvaluate:
    def test_lossless_report(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        rep = evaluate_compressor(ZlibCompressor(), x)
        assert rep.max_error == 0.0
        assert rep.bound_respected is True
        assert rep.original_nbytes == x.nbytes
        assert rep.ratio == pytest.approx(x.nbytes / rep.compressed_nbytes)

    def test_lossy_report_bound_flag(self):
        rng = np.random.default_rng(3)
        x = (rng.standard_normal(512) + 1j * rng.standard_normal(512)) / 30
        rep = evaluate_compressor(get_compressor("szlike", error_bound=1e-4), x)
        assert rep.bound_respected is True
        assert rep.max_error <= 1e-4 * (1 + 1e-9)

    def test_row_renders(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        rep = evaluate_compressor(ZlibCompressor(), x)
        assert "zlib" in rep.row()
