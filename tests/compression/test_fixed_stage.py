"""SZL1 entropy stage 2: fixed-length bit packing.

Payload: ``[width u8, 1..64][predictor u8: 0 none, 1 delta]`` then
``ceil(2n * width / 8)`` bytes of zigzag symbols, MSB-first. The ``<BBQd``
header in front of it is the one every SZL1 blob has.

**Forward-compatibility rule for checkpoints.** A build from before this
stage reads any non-Huffman entropy id as zlib. Handed a fixed-length blob
it fails loudly — ``KeyError`` on the width byte, or ``zlib.error`` on the
predictor byte, which is never a deflate header — and never returns a wrong
array (``test_decoder_from_before_the_stage_fails_loudly``). So a checkpoint
written by this build needs this build to be read; older checkpoints read
as before.
"""

import pickle
import struct
import zlib

import numpy as np
import pytest

from repro.circuits import get_workload
from repro.compression import SZLikeCompressor
from repro.compression.bitstream import (_BLOCK_GROUPS, pack_fixed,
                                         unpack_fixed)
from repro.compression.interface import split_dtype
from repro.compression.metrics import max_component_error
from repro.compression.quantizer import unzigzag, zigzag
from repro.compression.szlike import blob_entropy
from repro.parallel import run_equivalence

from .test_robustness import ACCEPTABLE

WIDTHS = range(1, 65)
LENGTHS = (1, 7, 512, 1024)  # amplitudes; 7 * width is no multiple of 8
C64_ULP = float(np.finfo(np.float32).eps)


def symbols(count, width, seed=0):
    """``count`` uint64 symbols using the full ``width`` bits."""
    rng = np.random.default_rng(seed)
    top = (1 << width) - 1
    values = rng.integers(0, top, size=count, dtype=np.uint64, endpoint=True)
    values[0] = top
    return values


def noise(n, dtype=np.complex128, scale=1 / 32, seed=0):
    rng = np.random.default_rng(seed)
    return ((rng.standard_normal(n) + 1j * rng.standard_normal(n))
            * scale).astype(dtype)


class TestPackFixed:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_round_trip_and_layout(self, width):
        for n in LENGTHS:
            values = symbols(2 * n, width, seed=width)
            packed = pack_fixed(values, width)
            assert len(packed) == (2 * n * width + 7) // 8
            assert np.array_equal(unpack_fixed(packed, 2 * n, width), values)
        # MSB-first, fields back to back, zero-padded at the end
        values = symbols(7, width, seed=1)
        bits = "".join(format(int(v), f"0{width}b") for v in values)
        packed = pack_fixed(values, width)
        assert packed == int(bits.ljust(8 * len(packed), "0"), 2).to_bytes(
            len(packed), "big")

    @pytest.mark.parametrize("width", [1, 7, 13, 16, 25, 32, 33])
    def test_streams_longer_than_one_gather_block(self, width):
        # the packer walks long streams a block of fields at a time: the
        # layout across block edges is the one MSB-first bit string
        count = 3 * 8 * _BLOCK_GROUPS + 5
        values = symbols(count, width, seed=width)
        packed = pack_fixed(values, width)
        bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))
        fields = bits[:count * width].reshape(count, width)
        weights = np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64)
        assert np.array_equal((fields * weights).sum(axis=1, dtype=np.uint64),
                              values)
        assert not bits[count * width:].any()
        assert np.array_equal(unpack_fixed(packed, count, width), values)

    @pytest.mark.parametrize("width", [0, 65, -1])
    def test_width_out_of_range(self, width):
        with pytest.raises(ValueError):
            pack_fixed(np.zeros(4, dtype=np.uint64), width)
        with pytest.raises(ValueError):
            unpack_fixed(b"\0" * 4, 4, width)

    def test_short_or_long_buffer_rejected(self):
        packed = pack_fixed(symbols(100, 13), 13)
        for damaged in (packed[:-1], packed + b"\0", b""):
            with pytest.raises(ValueError):
                unpack_fixed(damaged, 100, 13)


def fixed_blob(stream, width, predictor, step_bound):
    """A stage-2 SZL1 blob built by hand: ``stream`` (int64) is what gets
    packed — the codes themselves, or with ``predictor`` their deltas."""
    return (b"SZL1"
            + struct.pack("<BBQd", 0, 2, stream.shape[0] // 2, step_bound)
            + bytes((width, predictor)) + pack_fixed(zigzag(stream), width))


class TestDecoder:
    @pytest.mark.parametrize("predictor", [0, 1])
    @pytest.mark.parametrize("width", range(1, 55))
    def test_every_width_and_predictor_round_trips(self, width, predictor):
        # width 54 is the widest the encoder can emit (|code| <= 2**52)
        codec = SZLikeCompressor()
        step_bound = 2.0 ** -60
        for n in LENGTHS:
            stream = unzigzag(symbols(2 * n, width, seed=n))
            out = codec.decompress(
                fixed_blob(stream, width, predictor, step_bound))
            codes = np.cumsum(stream) if predictor else stream
            assert np.array_equal(np.concatenate([out.real, out.imag]),
                                  codes * (2.0 * step_bound))

    def test_c64_blob_decodes_to_c64(self):
        stream = unzigzag(symbols(1024, 14))
        out = SZLikeCompressor().decompress(
            b"DTP1\x01" + fixed_blob(stream, 14, 0, 1e-6))
        assert out.dtype == np.complex64 and out.shape == (512,)


class TestEncoderPicksTheStage:
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128],
                             ids=["c64", "c128"])
    @pytest.mark.parametrize("eb", [1e-4, 1e-6, 1e-9])
    def test_flat_noise_is_packed_within_the_bound(self, eb, dtype):
        x = noise(512, dtype)
        codec = SZLikeCompressor(error_bound=eb)
        blob = codec.compress(x)
        assert blob_entropy(blob) == "fixed"
        out = codec.decompress(blob)
        assert out.dtype == x.dtype and out.shape == x.shape
        # the bound is checked in float64; a c64 result is then rounded once
        tol = eb + (C64_ULP * float(np.abs(x).max())
                    if dtype == np.complex64 else 0.0)
        assert max_component_error(x, out) <= tol

    def test_no_predictor_on_noise(self):
        # delta coding iid codes widens them by a bit
        blob = SZLikeCompressor().compress(noise(512))
        width, predictor = blob[22], blob[23]
        assert predictor == 0
        assert 13 <= width <= 17

    def test_predictor_kept_where_it_narrows_the_stream(self):
        # one random walk from zero through the real plane and on through
        # the imaginary one: the codes drift to ~2**17, their deltas are
        # 11-bit noise with no jump where the planes meet (the first delta
        # is the first code, so an offset would not be predicted away)
        walk = np.cumsum(np.random.default_rng(5).standard_normal(2048)) * 1e-3
        x = walk[:1024] + 1j * walk[1024:]
        codec = SZLikeCompressor()
        blob = codec.compress(x)
        assert blob_entropy(blob) == "fixed"
        width, predictor = blob[22], blob[23]
        assert predictor == 1
        assert width < int(float(np.abs(walk).max()) / 1e-6).bit_length()
        assert max_component_error(x, codec.decompress(blob)) <= 1e-6
        assert len(blob) < len(SZLikeCompressor(entropy="zlib").compress(x))

    def test_same_array_as_forced_zlib(self):
        x = noise(1024, seed=3)
        auto, forced = SZLikeCompressor(), SZLikeCompressor(entropy="zlib")
        packed, deflated = auto.compress(x), forced.compress(x)
        assert (blob_entropy(packed), blob_entropy(deflated)) == \
            ("fixed", "zlib")
        assert np.array_equal(auto.decompress(packed),
                              forced.decompress(deflated))

    def test_forced_modes_never_pack(self):
        blob = SZLikeCompressor(entropy="zlib").compress(noise(512))
        assert blob_entropy(blob) in ("zlib", "raw")

    def test_short_chunks_stay_off_the_stage(self):
        # fewer symbols than the alphabet probe needs distinct values
        for n in (1, 7, 23):
            assert blob_entropy(SZLikeCompressor().compress(noise(n))) != "fixed"


class TestPoolContract:
    def test_pickled_clone_packs_the_same_bytes(self):
        codec = SZLikeCompressor(error_bound=1e-6)
        x = noise(512, np.complex64)
        blob = codec.compress(x)
        assert blob_entropy(blob) == "fixed"
        clone = pickle.loads(pickle.dumps(codec))
        assert clone.compress(x) == blob
        assert np.array_equal(clone.decompress(blob), codec.decompress(blob))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_serial_equals_parallel_blob_for_blob(self, workers):
        report = run_equivalence(
            get_workload("supremacy", 12), workers=workers, chunk_qubits=8,
            compressor="szlike", compressor_options={"error_bound": 1e-6})
        assert report.ok, report.summary()


def decoder_from_before_the_stage(blob):
    """``SZLikeCompressor.decompress`` as it was before entropy id 2, less
    its arm for id 1 (the Huffman stage, since deleted): any other id is
    read as zlib."""
    dtype, blob = split_dtype(blob)
    if blob[:4] != b"SZL1":
        raise ValueError("not an SZL1 blob")
    flag, entropy_id, n, abs_bound = struct.unpack_from("<BBQd", blob, 4)
    payload = blob[22:]
    if flag == 1:
        return np.frombuffer(zlib.decompress(payload), dtype=dtype,
                             count=n).copy()
    width = {1: np.uint8, 2: np.uint16, 4: np.uint32,
             8: np.uint64}[payload[0]]
    zz = np.frombuffer(zlib.decompress(payload[1:]), dtype=width,
                       count=2 * n).astype(np.uint64)
    planes = np.cumsum(unzigzag(zz), dtype=np.int64) * (2.0 * abs_bound)
    return (planes[:n] + 1j * planes[n:]).astype(dtype)


class TestForwardCompatibility:
    def test_old_decoder_still_reads_the_legacy_stages(self):
        t = np.linspace(0, 4 * np.pi, 512)
        x = np.sin(t) * np.exp(1j * t / 3) / 16
        codec = SZLikeCompressor(error_bound=1e-4, entropy="zlib")
        blob = codec.compress(x)
        assert blob_entropy(blob) == "zlib"
        assert np.array_equal(decoder_from_before_the_stage(blob),
                              codec.decompress(blob))

    @pytest.mark.parametrize("predictor", [0, 1])
    @pytest.mark.parametrize("width", WIDTHS)
    def test_decoder_from_before_the_stage_fails_loudly(self, width,
                                                        predictor):
        stream = unzigzag(symbols(1024, width, seed=width))
        with pytest.raises(ACCEPTABLE):
            decoder_from_before_the_stage(
                fixed_blob(stream, width, predictor, 1e-6))

    def test_old_decoder_rejects_what_the_encoder_emits(self):
        for dtype in (np.complex64, np.complex128):
            blob = SZLikeCompressor().compress(noise(512, dtype))
            assert blob_entropy(blob) == "fixed"
            with pytest.raises(ACCEPTABLE):
                decoder_from_before_the_stage(blob)
