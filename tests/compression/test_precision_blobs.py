"""Dtype-carrying blobs: every codec round-trips complex64 and complex128.

Golden-header pins: a complex128 blob is byte-identical to the historical
framing (no ``DTP1`` prefix), while a complex64 blob starts with
``b"DTP1\\x01"`` followed by the codec's untouched frame.
"""

import numpy as np
import pytest

from repro.compression import (available_compressors, compressor_options,
                               get_compressor)
from repro.compression.interface import (
    DTYPE_MAGIC,
    coerce_amplitudes,
    split_dtype,
    tag_dtype,
)
from repro.compression.metrics import max_component_error

ALL_CODECS = available_compressors()
#: codecs whose round-trip must be bit-exact in both dtypes
LOSSLESS = ["bz2", "lzma", "null", "zlib"]
#: extra slack for the decoder's final float32 rounding of a c64 payload
C64_ULP = 2.0 ** -22


def rand_state(n=512, seed=11, dtype=np.complex128):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.max(np.abs(v))  # bounded by 1 so absolute error bounds apply
    return v.astype(dtype)


def make(name):
    return get_compressor(name, **compressor_options(name, 1e-6))


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_CODECS)
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_restores_dtype_and_length(self, name, dtype):
        comp = make(name)
        x = rand_state(dtype=dtype)
        back = comp.decompress(comp.compress(x))
        assert back.dtype == np.dtype(dtype)
        assert back.shape == x.shape

    @pytest.mark.parametrize("name", LOSSLESS)
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_lossless_bit_exact(self, name, dtype):
        comp = make(name)
        x = rand_state(dtype=dtype)
        assert np.array_equal(comp.decompress(comp.compress(x)), x)

    @pytest.mark.parametrize("name", sorted(set(ALL_CODECS) - set(LOSSLESS)))
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_lossy_within_bound(self, name, dtype):
        comp = make(name)
        x = rand_state(dtype=dtype)
        back = comp.decompress(comp.compress(x))
        # c64 storage adds at most one float32 rounding on top of the
        # codec's own bound (amplitudes here are bounded by 1).
        tol = comp.error_bound * 1.01 + (C64_ULP if dtype == np.complex64 else 0.0)
        assert max_component_error(x.astype(np.complex128),
                                   back.astype(np.complex128)) <= tol

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_empty_c64_roundtrip(self, name):
        comp = make(name)
        x = np.empty(0, dtype=np.complex64)
        back = comp.decompress(comp.compress(x))
        assert back.shape == (0,)
        assert back.dtype == np.complex64


class TestGoldenHeaders:
    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_c128_blob_is_untagged(self, name):
        blob = make(name).compress(rand_state())
        assert not blob.startswith(DTYPE_MAGIC)
        dt, inner = split_dtype(blob)
        assert dt == np.dtype(np.complex128)
        assert inner == blob  # legacy framing, byte-identical

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_c64_blob_has_dtp1_prefix(self, name):
        blob = make(name).compress(rand_state(dtype=np.complex64))
        assert blob[:5] == DTYPE_MAGIC + b"\x01"
        dt, inner = split_dtype(blob)
        assert dt == np.dtype(np.complex64)
        assert inner == blob[5:]

    def test_zlib_magics_pinned(self):
        # a dense state is stored in the raw frame, a uniform one as its one
        # amplitude, and a structured one deflated
        comp = make("zlib")
        uniform = np.full(512, 0.5 + 0.5j)
        half = uniform.copy()
        half[256:] = 0
        for dtype, at in ((np.complex128, 0), (np.complex64, 5)):
            assert comp.compress(rand_state(dtype=dtype))[at:at + 4] == b"LSR1"
            assert comp.compress(uniform.astype(dtype))[at:at + 4] == b"LSU1"
            assert comp.compress(half.astype(dtype))[at:at + 4] == b"LSL1"


class TestHelpers:
    def test_tag_split_inverse(self):
        assert split_dtype(tag_dtype(b"payload", np.complex64)) == (
            np.dtype(np.complex64), b"payload")
        assert tag_dtype(b"payload", np.complex128) == b"payload"

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            split_dtype(DTYPE_MAGIC + b"\x7f" + b"x")
        with pytest.raises(ValueError):
            tag_dtype(b"x", np.float64)

    def test_coerce_amplitudes(self):
        assert coerce_amplitudes(np.ones(4, np.complex64)).dtype == np.complex64
        assert coerce_amplitudes(np.ones(4, np.float64)).dtype == np.complex128
        assert coerce_amplitudes(np.ones(4, np.complex128)).dtype == np.complex128
