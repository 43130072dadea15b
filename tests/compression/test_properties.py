"""Property-based tests (hypothesis) for the compression stack invariants.

These are the load-bearing guarantees of the whole system: if a codec
violates its error bound or loses length information, the simulator's
correctness story collapses. Hypothesis searches the input space for
violations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression import (
    SZLikeCompressor,
    ZlibCompressor,
    max_component_error,
)
from repro.compression.quantizer import unzigzag, zigzag

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)


@st.composite
def complex_arrays(draw, max_len=512):
    n = draw(st.integers(min_value=0, max_value=max_len))
    re = draw(
        hnp.arrays(np.float64, n, elements=finite_floats)
    )
    im = draw(
        hnp.arrays(np.float64, n, elements=finite_floats)
    )
    return re + 1j * im


class TestSZLikeProperties:
    @given(data=complex_arrays(), eb_exp=st.integers(min_value=-8, max_value=-1))
    @settings(max_examples=60, deadline=None)
    def test_error_bound_always_respected(self, data, eb_exp):
        eb = 10.0**eb_exp
        c = SZLikeCompressor(error_bound=eb)
        back = c.decompress(c.compress(data))
        assert back.shape == data.shape
        assert max_component_error(data, back) <= eb * (1 + 1e-9)

    @given(data=complex_arrays(max_len=256))
    @settings(max_examples=30, deadline=None)
    def test_compress_is_deterministic(self, data):
        c = SZLikeCompressor(error_bound=1e-5)
        assert c.compress(data) == c.compress(data)


class TestLosslessProperties:
    @given(data=complex_arrays(max_len=512))
    @settings(max_examples=40, deadline=None)
    def test_zlib_bit_exact(self, data):
        c = ZlibCompressor()
        back = c.decompress(c.compress(data))
        assert np.array_equal(back, data)


class TestZigzagProperties:
    @given(
        vals=hnp.arrays(
            np.int64,
            st.integers(min_value=0, max_value=1000),
            elements=st.integers(min_value=-(2**52), max_value=2**52),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_bijection(self, vals):
        assert np.array_equal(unzigzag(zigzag(vals)), vals)

    @given(
        vals=hnp.arrays(
            np.int64, 64, elements=st.integers(min_value=-(2**52), max_value=2**52)
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_zigzag_nonnegative(self, vals):
        zz = zigzag(vals)
        assert zz.dtype == np.uint64
