"""The uniform frame: a chunk of one repeated amplitude is that amplitude.

zlib writes it as ``LSU1`` once its probe has found a repeat, szlike as
SZL1 flag 2; both decode with one ``out.fill``. The test that decides it,
:func:`~repro.compression.interface.uniform_amplitude`, is bitwise:
``+0.0`` and ``-0.0`` never merge, nor do two NaN payloads, so a lossless
round trip stays bit-exact whatever the chunk holds, and szlike stores a
uniform chunk exactly, not within its bound.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import SZLikeCompressor, ZlibCompressor
from repro.compression.interface import uniform_amplitude
from repro.compression.lossless import blob_frame
from repro.compression.szlike import blob_entropy

#: amplitude dtype -> (the unsigned word of one component, its exponent
#: bits: all set in a NaN)
COMPONENT = {np.complex64: (np.uint32, 0x7F800000),
             np.complex128: (np.uint64, 0x7FF0000000000000)}
DTYPES = st.sampled_from(sorted(COMPONENT, key=lambda d: d().itemsize))


def amplitudes(words, dtype):
    """A chunk from its components' raw bits (two words per amplitude)."""
    component, _nan = COMPONENT[dtype]
    return np.array(words, dtype=component).view(dtype)


def bits(x):
    return x.view(COMPONENT[x.dtype.type][0])


def any_word(dtype):
    component, _nan = COMPONENT[dtype]
    return st.integers(0, np.iinfo(component).max)


def nan_word(dtype):
    """A NaN component: every exponent bit set, a payload that is not 0,
    either sign."""
    component, exponent = COMPONENT[dtype]
    sign = 1 << (8 * np.dtype(component).itemsize - 1)
    payload = st.integers(1, (exponent & -exponent) - 1)
    return st.tuples(payload, st.sampled_from([0, sign])).map(
        lambda ps: exponent | ps[0] | ps[1])


def is_uniform(x):
    return len({amplitude.tobytes() for amplitude in x}) == 1


def probe_repeats(x):
    """Whether zlib's probe finds a repeat in a uniform chunk: whether its
    words repeat at all. They do from two amplitudes on; one amplitude is
    one word in c64, and two that repeat only if equal in c128."""
    words = memoryview(x).cast("B").cast("Q").tolist()
    return len(set(words)) < len(words)


def assert_zlib_bit_exact(x):
    codec = ZlibCompressor()
    blob = codec.compress(x)
    out = np.empty_like(x)
    assert codec.decompress(blob, out=out) is out
    assert out.dtype == x.dtype and np.array_equal(bits(out), bits(x))
    return blob_frame(blob)


@st.composite
def one_odd_amplitude(draw):
    """A uniform chunk but for one amplitude: at the first, middle or last
    position (where the pre-check reads) or anywhere else."""
    dtype = draw(DTYPES)
    n = draw(st.integers(2, 300))
    base = [draw(any_word(dtype)), draw(any_word(dtype))]
    odd = [draw(any_word(dtype)), draw(any_word(dtype))]
    if odd == base:
        odd[draw(st.integers(0, 1))] ^= 1 << draw(st.integers(0, 31))
    at = draw(st.sampled_from([0, n // 2, (n - 1) // 2, n - 1])
              | st.integers(0, n - 1))
    words = base * n
    words[2 * at:2 * at + 2] = odd
    return amplitudes(words, dtype)


@st.composite
def signed_zeros(draw):
    """Components of +0.0 and -0.0 only, in any mix."""
    dtype = draw(DTYPES)
    component, _nan = COMPONENT[dtype]
    sign = 1 << (8 * np.dtype(component).itemsize - 1)
    n = draw(st.integers(1, 300))
    signs = draw(st.lists(st.booleans(), min_size=2 * n, max_size=2 * n))
    return amplitudes([sign if s else 0 for s in signs], dtype)


@st.composite
def nan_payloads(draw):
    """NaN components with one payload, or a mix of payloads."""
    dtype = draw(DTYPES)
    n = draw(st.integers(1, 300))
    first = draw(nan_word(dtype))
    if draw(st.booleans()):
        return amplitudes([first] * (2 * n), dtype)
    words = draw(st.lists(nan_word(dtype), min_size=2 * n, max_size=2 * n))
    return amplitudes(words, dtype)


class TestTheTest:
    def test_signed_zeros_never_merge(self):
        x = np.zeros(8)
        x[5] = -0.0
        assert uniform_amplitude(x.astype(np.complex128)) is None
        assert uniform_amplitude(np.zeros(8, np.complex128)) == bytes(16)

    def test_nan_payloads_never_merge(self):
        words = np.full(16, 0x7FF8000000000001, np.uint64)
        assert uniform_amplitude(words.view(np.complex128)) is not None
        words[9] = 0x7FF8000000000002
        assert uniform_amplitude(words.view(np.complex128)) is None

    def test_an_empty_chunk_repeats_nothing(self):
        assert uniform_amplitude(np.zeros(0, np.complex64)) is None

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_the_amplitude_is_the_chunks_own_bytes(self, dtype):
        x = np.full(33, 0.25 - 0.75j, dtype=dtype)
        assert uniform_amplitude(x) == x[:1].tobytes()
        words = memoryview(x).cast("B").cast("Q")
        assert uniform_amplitude(x, words) == x[:1].tobytes()


class TestBitExactRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(x=one_odd_amplitude())
    def test_one_odd_amplitude(self, x):
        assert assert_zlib_bit_exact(x) != "uniform"
        assert uniform_amplitude(x) is None
        assert blob_entropy(SZLikeCompressor().compress(x)) != "uniform"

    @settings(max_examples=100, deadline=None)
    @given(x=signed_zeros())
    def test_signed_zeros(self, x):
        uniform = is_uniform(x)
        assert (uniform_amplitude(x) is not None) == uniform
        assert (assert_zlib_bit_exact(x) == "uniform") == (
            uniform and probe_repeats(x))
        assert (blob_entropy(SZLikeCompressor().compress(x))
                == "uniform") == uniform

    @settings(max_examples=100, deadline=None)
    @given(x=nan_payloads())
    def test_nan_payloads(self, x):
        assert_zlib_bit_exact(x)
        codec = SZLikeCompressor()
        blob = codec.compress(x)
        if is_uniform(x):
            # one payload: stored as that amplitude, exactly
            assert blob_entropy(blob) == "uniform"
            assert np.array_equal(bits(codec.decompress(blob)), bits(x))

    def test_a_signaling_nan_round_trips_without_a_warning(self):
        # szlike upcasts a c64 chunk to f64 planes; that cast quiets a
        # signaling NaN, and the chunk escapes to raw with its own bits
        words = np.zeros(128, np.uint32)
        words[5], words[6] = 0x7F800001, 0x3F800000
        x = words.view(np.complex64)
        codec = SZLikeCompressor()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = codec.decompress(codec.compress(x))
        assert np.array_equal(bits(out), words)

    @settings(max_examples=100, deadline=None)
    @given(dtype=DTYPES, n=st.integers(1, 300), data=st.data())
    def test_any_uniform_chunk_is_exact_under_both_codecs(self, dtype, n,
                                                          data):
        word = [data.draw(any_word(dtype)), data.draw(any_word(dtype))]
        x = amplitudes(word * n, dtype)
        assert uniform_amplitude(x) == x[:1].tobytes()
        assert (assert_zlib_bit_exact(x) == "uniform") == probe_repeats(x)
        codec = SZLikeCompressor()
        blob = codec.compress(x)
        assert blob_entropy(blob) == "uniform"
        out = np.empty_like(x)
        assert codec.decompress(blob, out=out) is out
        assert np.array_equal(bits(out), bits(x))
