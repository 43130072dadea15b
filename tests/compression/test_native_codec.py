"""The compiled frame codec writes what the numpy frame writes, byte for byte.

szlike runs its quantised frame as one C call a chunk
(:mod:`repro.compression.native`); :class:`NumpySZLike`, the numpy frame,
is its oracle, as the kron reference is the kernels'. Every blob of the
``test_codec_bytes`` corpus, every chunk a property draws (NaN, infinities,
signed zeros, subnormals, codes at 2**52, bounds that force the raw
escape), every stage width and predictor, and every damaged payload of
``test_robustness`` must come out the same from both: the same bytes, the
same decoded amplitudes, or the same exception type.

On a host that cannot build the library szlike runs the numpy frame
itself, and this module is skipped (CI asserts the library loaded before
it runs these).
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compression import native
from repro.compression.interface import DTYPE_MAGIC, split_dtype
from repro.compression.szlike import (NumpySZLike, SZLikeCompressor,
                                      blob_entropy)
from tests.compression.test_codec_bytes import collect_corpus
from tests.compression.test_robustness import SZL1_STAGES, truncations

pytestmark = pytest.mark.skipif(native.frame_codec() is None,
                                reason="no compiled frame codec here")

DTYPES = [np.complex64, np.complex128]
HEADER = struct.Struct("<BBQd")


def outcome(codec, blob):
    """What decoding ``blob`` gives: the array's dtype and bytes, or the
    type of the exception it raised."""
    try:
        out = codec.decompress(blob)
    except Exception as exc:  # compared, not swallowed
        return type(exc)
    return out.dtype, out.tobytes()


def same_everywhere(blob, eb=1e-6):
    assert outcome(SZLikeCompressor(eb), blob) == \
        outcome(NumpySZLike(eb), blob)


@pytest.fixture(scope="module")
def corpus():
    return collect_corpus()


@pytest.mark.parametrize("entropy", ["auto", "zlib"])
def test_the_corpus_encodes_and_decodes_as_the_oracle(corpus, entropy):
    codec = SZLikeCompressor(error_bound=1e-6, entropy=entropy)
    oracle = NumpySZLike(error_bound=1e-6, entropy=entropy)
    stages = set()
    for chunk in corpus:
        blob = codec.compress(chunk)
        assert blob == oracle.compress(chunk)
        assert codec.decompress(blob).tobytes() == \
            oracle.decompress(blob).tobytes()
        stages.add((chunk.dtype, blob_entropy(blob)))
    want = {"uniform", "zlib"} | ({"fixed"} if entropy == "auto" else set())
    for dtype in DTYPES:
        assert {stage for dt, stage in stages if dt == dtype} >= want


#: components whose quotients are not finite, zeros of either sign, and
#: subnormals of both widths
SPECIALS = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-310,
            1e-40, -1e-45]


@st.composite
def chunks(draw):
    """``(chunk, bound, entropy)``: components of one scale, some at the
    edge of the safe code range, with specials dropped in."""
    dtype = draw(st.sampled_from(DTYPES))
    real = np.float32 if dtype is np.complex64 else np.float64
    n = draw(st.integers(1, 130))
    eb = draw(st.sampled_from([1e-6, 1e-2, 1e-12, 1e-16, 1e-300]))
    # a component whose code is 2**52, at the quantiser's shrunk step
    limit = 2.0 * eb * (1.0 - 2.0 ** -30) * 2.0 ** 52
    scale = draw(st.sampled_from([1e-3, 1.0, 0.5 * limit, limit,
                                  limit * (1 + 2.0 ** -40), 2.0 * limit]))
    unit = draw(st.lists(st.floats(-1.0, 1.0, width=32), min_size=2 * n,
                         max_size=2 * n))
    with np.errstate(over="ignore"):
        parts = (np.array(unit) * scale).astype(real)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, 2 * n - 1))
        parts[at] = draw(st.sampled_from(SPECIALS)
                         | st.floats(width=32 if real is np.float32 else 64))
    x = parts.view(dtype)
    # the first amplitude repeated: the uniform test reads on past the
    # head, and a whole chunk of it is a uniform frame
    x[:draw(st.integers(1, n))] = x[0]
    return x, eb, draw(st.sampled_from(["auto", "zlib"]))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chunks())
def test_any_chunk_encodes_and_decodes_as_the_oracle(case):
    x, eb, entropy = case
    with np.errstate(all="ignore"):
        blob = NumpySZLike(eb, entropy).compress(x)
        assert SZLikeCompressor(eb, entropy).compress(x) == blob
        assert outcome(SZLikeCompressor(eb, entropy), blob) == \
            outcome(NumpySZLike(eb, entropy), blob)


def frame(dtype, n, entropy_id, payload, bound=1e-6):
    tag = DTYPE_MAGIC + b"\x01" if dtype is np.complex64 else b""
    return tag + b"SZL1" + HEADER.pack(0, entropy_id, n, bound) + payload


@pytest.mark.parametrize("dtype", DTYPES, ids=["c64", "c128"])
@pytest.mark.parametrize("predictor", [0, 1])
@pytest.mark.parametrize("width", range(1, 65))
def test_every_fixed_width_decodes_as_the_oracle(width, predictor, dtype):
    """Random fields, padding bits included, at every width: an odd count
    puts the last fields past the decoder's word reads."""
    n = 37
    rng = np.random.default_rng(2 * width + predictor)
    bits = rng.integers(0, 256, size=(2 * n * width + 7) // 8,
                        dtype=np.uint8).tobytes()
    with np.errstate(over="ignore"):
        same_everywhere(frame(dtype, n, 2, bytes((width, predictor)) + bits))


@pytest.mark.parametrize("dtype", DTYPES, ids=["c64", "c128"])
@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_every_zlib_width_decodes_as_the_oracle(width, dtype):
    n = 37
    raw = np.random.default_rng(width).integers(
        0, 256, size=2 * n * width, dtype=np.uint8).tobytes()
    with np.errstate(over="ignore"):
        same_everywhere(frame(dtype, n, 0, bytes((width,))
                              + zlib.compress(raw)))


def stage_blob(stage, dtype):
    options, build = SZL1_STAGES[stage]
    blob = SZLikeCompressor(**options).compress(build(dtype))
    assert blob == NumpySZLike(**options).compress(build(dtype))
    assert blob_entropy(blob) == stage
    return blob


def damaged(blob):
    """``test_robustness``'s damage to one blob: truncations, every byte
    flipped but the amplitude count's (a flipped count asks for a huge
    array from both decoders alike), every value of each header byte, and
    the fixed stage's wrong lengths."""
    at = len(DTYPE_MAGIC) + 1 if blob.startswith(DTYPE_MAGIC) else 0
    count = range(at + 6, at + 14)
    for cut in truncations(blob):
        yield blob[:cut]
    for pos in range(len(blob)):
        if pos not in count:
            yield blob[:pos] + bytes([blob[pos] ^ 0xFF]) + blob[pos + 1:]
    for pos in (at - 1 if at else None, at + 4, at + 5, at + 22, at + 23):
        if pos is not None and pos < len(blob):
            for value in range(256):
                yield blob[:pos] + bytes([value]) + blob[pos + 1:]
    for delta in (-100, -1, 1):
        yield blob[:delta] if delta < 0 else blob + b"\0" * delta


@pytest.mark.parametrize("dtype", DTYPES, ids=["c64", "c128"])
@pytest.mark.parametrize("stage", sorted(SZL1_STAGES))
def test_every_damaged_payload_fails_or_decodes_as_the_oracle(stage, dtype):
    with np.errstate(all="ignore"):
        for blob in damaged(stage_blob(stage, dtype)):
            same_everywhere(blob)


@pytest.mark.parametrize("dtype", DTYPES, ids=["c64", "c128"])
def test_decoding_into_out_writes_what_a_fresh_array_holds(dtype):
    codec = SZLikeCompressor()
    for stage in ("fixed", "zlib"):
        blob = stage_blob(stage, dtype)
        out = np.full(256, 7, dtype=dtype)
        assert codec.decompress(blob, out=out) is out
        assert out.tobytes() == NumpySZLike().decompress(blob).tobytes()


def test_a_read_only_chunk_encodes_as_the_oracle():
    x = SZL1_STAGES["fixed"][1](np.complex128)
    x.setflags(write=False)
    assert SZLikeCompressor().compress(x) == NumpySZLike().compress(x)


@pytest.mark.parametrize("extra", [0, 1])
def test_the_distinct_probe_at_its_threshold(extra):
    """Noise whose first 64 deltas hold 47 + ``extra`` distinct values,
    one of them the two zeros (rule 4: ``-0.0`` and ``0.0`` are one value
    to Python's set): at 47 ``auto`` takes zlib, at 48 fixed."""
    eb = 1e-6
    step = 2.0 * eb * (1.0 - 2.0 ** -30)
    rng = np.random.default_rng(7)
    wide = rng.choice(np.arange(1000, 40000), size=46 + extra, replace=False)
    # code 0 is -0.0 (a small negative component), code 1 repeats it: the
    # first two deltas are -0.0 and 0.0
    deltas = np.concatenate([[0, 0], wide, wide[:16 - extra]])
    deltas = np.concatenate(
        [deltas, rng.integers(-40000, 40000, size=1024 - 64)])
    planes = np.cumsum(deltas).astype(np.float64) * step
    planes[0] = planes[1] = -0.1 * step
    x = planes.reshape(2, 512).T.copy().view(np.complex128).ravel()
    blob = NumpySZLike(eb).compress(x)
    assert blob_entropy(blob) == ("fixed" if extra else "zlib")
    assert SZLikeCompressor(eb).compress(x) == blob


@pytest.mark.parametrize("dtype", DTYPES, ids=["c64", "c128"])
@pytest.mark.parametrize("n", [97, 333, 1001])
def test_a_fixed_payload_ending_mid_byte(n, dtype):
    """Odd counts of noise: the packed bits end inside their last byte."""
    rng = np.random.default_rng(n)
    x = ((rng.standard_normal(n) + 1j * rng.standard_normal(n)) / 16
         ).astype(dtype)
    blob = NumpySZLike().compress(x)
    width = blob[len(blob) - len(split_dtype(blob)[1]) + 22]
    assert blob_entropy(blob) == "fixed" and 2 * n * width % 8
    assert SZLikeCompressor().compress(x) == blob
