"""Unit tests for the error-bounded quantizer."""

import numpy as np
import pytest

from repro.compression.quantizer import (
    MAX_SAFE_CODE,
    dequantize,
    quantize,
    unzigzag,
    zigzag,
)


class TestQuantize:
    @pytest.mark.parametrize("eb", [1e-2, 1e-4, 1e-8])
    def test_bound_respected(self, eb, rng):
        x = rng.standard_normal(5000)
        q = quantize(x, eb)
        back = dequantize(q.codes, q.abs_bound)
        assert np.max(np.abs(x - back)) <= eb * (1 + 1e-12)

    def test_zero_input(self):
        q = quantize(np.zeros(10), 1e-3)
        assert np.all(q.codes == 0)

    def test_deterministic(self, rng):
        x = rng.standard_normal(100)
        a = quantize(x, 1e-3).codes
        b = quantize(x, 1e-3).codes
        assert np.array_equal(a, b)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            quantize(np.array([1e10]), 1e-10)

    def test_nonfinite_rejected(self):
        with pytest.raises(FloatingPointError):
            quantize(np.array([np.nan]), 1e-3)

    def test_empty(self):
        q = quantize(np.empty(0), 1e-3)
        assert q.codes.shape == (0,)

    def test_codes_are_int64(self, rng):
        q = quantize(rng.standard_normal(10), 1e-2)
        assert q.codes.dtype == np.int64


class TestZigzag:
    def test_known_values(self):
        vals = np.array([0, -1, 1, -2, 2], dtype=np.int64)
        assert list(zigzag(vals)) == [0, 1, 2, 3, 4]

    def test_roundtrip(self, rng):
        vals = rng.integers(-(2**40), 2**40, size=1000).astype(np.int64)
        assert np.array_equal(unzigzag(zigzag(vals)), vals)

    def test_large_magnitudes(self):
        vals = np.array([MAX_SAFE_CODE, -MAX_SAFE_CODE], dtype=np.int64)
        assert np.array_equal(unzigzag(zigzag(vals)), vals)
