"""Robustness: corrupted / truncated / foreign blobs must raise cleanly.

A store that crashes the interpreter (or silently returns garbage) on a
damaged checkpoint is worse than one that errors; every codec must raise
``ValueError``-family exceptions on malformed input, never segfault or
return wrong-length data.
"""

import lzma
import struct
import zlib

import numpy as np
import pytest

from repro.compression import available_compressors, get_compressor
from repro.compression.interface import DTYPE_MAGIC, split_dtype
from repro.compression.szlike import SZLikeCompressor, blob_entropy

ACCEPTABLE = (ValueError, KeyError, IndexError, EOFError,
              zlib.error, lzma.LZMAError, struct.error, OSError)


def truncations(blob):
    return (len(blob) // 2, len(blob) - 3, len(blob) - 1, 30)


def assert_rejected_or_short(codec, damaged, full_length):
    """A truncated blob raises, or at worst decodes short — a decoder that
    fabricates a full-length chunk from it fails."""
    try:
        out = codec.decompress(damaged)
    except ACCEPTABLE:
        return
    assert out.shape[0] != full_length, \
        "truncated blob decoded to full length"


@pytest.fixture(scope="module")
def sample():
    rng = np.random.default_rng(0)
    return (rng.standard_normal(256) + 1j * rng.standard_normal(256)) / 16


class TestCorruption:
    @pytest.mark.parametrize("name", available_compressors())
    def test_wrong_magic_rejected(self, name, sample):
        codec = get_compressor(name)
        blob = codec.compress(sample)
        bad = b"XXXX" + blob[4:]
        if bad == blob:  # degenerate codecs without magic are exempt
            pytest.skip("codec has no magic prefix")
        with pytest.raises(ACCEPTABLE):
            out = codec.decompress(bad)
            # If no exception, the data must at least not silently differ
            # in shape (defense against magic-free formats).
            assert out.shape == sample.shape

    @pytest.mark.parametrize("name", available_compressors())
    def test_truncation_raises_or_errors(self, name, sample):
        codec = get_compressor(name)
        blob = codec.compress(sample)
        for cut in truncations(blob):
            assert_rejected_or_short(codec, blob[:cut], sample.shape[0])

    @pytest.mark.parametrize("name", ["szlike", "zlib"])
    def test_payload_bitflip_detected_or_bounded(self, name, sample):
        codec = get_compressor(name)
        blob = bytearray(codec.compress(sample))
        # flip a byte well inside the payload
        pos = min(len(blob) - 1, 3 * len(blob) // 4)
        blob[pos] ^= 0xFF
        try:
            out = codec.decompress(bytes(blob))
        except ACCEPTABLE:
            return  # detected — good
        # Not detected: result must still be the declared length (no
        # buffer over/underrun) — corruption may change values.
        assert out.shape[0] == sample.shape[0]

    @pytest.mark.parametrize("name", available_compressors())
    def test_empty_blob_rejected(self, name):
        codec = get_compressor(name)
        with pytest.raises(ACCEPTABLE):
            codec.decompress(b"")

    @pytest.mark.parametrize("name", available_compressors())
    def test_garbage_rejected(self, name):
        codec = get_compressor(name)
        rng = np.random.default_rng(1)
        garbage = rng.integers(0, 256, size=200).astype(np.uint8).tobytes()
        with pytest.raises(ACCEPTABLE):
            out = codec.decompress(garbage)
            raise ValueError(f"garbage decoded to shape {out.shape}")


def _noise(dtype):
    rng = np.random.default_rng(0)
    x = (rng.standard_normal(256) + 1j * rng.standard_normal(256)) / 16
    return x.astype(dtype)


def _smooth(dtype):
    t = np.linspace(0, 4 * np.pi, 256)
    return (np.sin(t) * np.exp(1j * t / 3) / 16).astype(dtype)


def _uniform(dtype):
    return np.full(256, 0.0625 - 0.125j, dtype=dtype)


#: stage -> (compressor options, input builder): one blob per SZL1 stage,
#: not whichever stage `auto` happens to pick for one noisy sample
SZL1_STAGES = {
    "raw": ({"error_bound": 1e-16}, _noise),
    "zlib": ({"entropy": "zlib"}, _smooth),
    "fixed": ({}, _noise),
    "uniform": ({}, _uniform),
}


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128],
                         ids=["c64", "c128"])
@pytest.mark.parametrize("stage", sorted(SZL1_STAGES))
class TestEverySZL1Stage:
    @staticmethod
    def blob(stage, dtype):
        options, build = SZL1_STAGES[stage]
        codec = SZLikeCompressor(**options)
        x = build(dtype)
        blob = codec.compress(x)
        assert blob_entropy(blob) == stage
        return codec, x, blob

    def test_round_trip_restores_dtype_and_length(self, stage, dtype):
        codec, x, blob = self.blob(stage, dtype)
        out = codec.decompress(blob)
        assert out.dtype == x.dtype and out.shape == x.shape

    def test_truncation(self, stage, dtype):
        codec, x, blob = self.blob(stage, dtype)
        for cut in truncations(blob):
            assert_rejected_or_short(codec, blob[:cut], x.shape[0])

    def test_payload_bitflip_detected_or_bounded(self, stage, dtype):
        codec, x, blob = self.blob(stage, dtype)
        # payload bytes: a uniform blob is mostly header, and its count
        # is its only length (see DESIGN.md, "The uniform frame")
        payload_at = len(blob) - len(split_dtype(blob)[1]) + 22
        for pos in (len(blob) // 2, 3 * len(blob) // 4, len(blob) - 1):
            pos = max(pos, payload_at)
            damaged = bytearray(blob)
            damaged[pos] ^= 0xFF
            try:
                out = codec.decompress(bytes(damaged))
            except ACCEPTABLE:
                continue
            assert out.shape == x.shape and out.dtype == x.dtype

    def test_garbage_payload_rejected(self, stage, dtype):
        codec, x, blob = self.blob(stage, dtype)
        header = len(blob) - len(split_dtype(blob)[1]) + 22
        rng = np.random.default_rng(1)
        garbage = rng.integers(0, 256, size=200).astype(np.uint8).tobytes()
        with pytest.raises(ACCEPTABLE):
            out = codec.decompress(blob[:header] + garbage)
            raise ValueError(f"garbage decoded to shape {out.shape}")


class TestFixedStagePayload:
    """``np.unpackbits(count=)`` zero-pads short input, so the decoder has
    to check the fixed-length payload itself; all three raise ValueError."""

    @staticmethod
    def parts():
        codec = get_compressor("szlike")
        blob = codec.compress(_noise(np.complex128))
        assert blob_entropy(blob) == "fixed"
        return codec, blob[:22], blob[22:]  # SZL1 header | width, predictor, bits

    @pytest.mark.parametrize("delta", [-1, 1, -100])
    def test_wrong_payload_length(self, delta):
        codec, header, payload = self.parts()
        damaged = payload[:delta] if delta < 0 else payload + b"\0" * delta
        with pytest.raises(ValueError):
            codec.decompress(header + damaged)

    @pytest.mark.parametrize("width", [0, 65, 255])
    def test_width_out_of_range(self, width):
        codec, header, payload = self.parts()
        with pytest.raises(ValueError):
            codec.decompress(header + bytes([width]) + payload[1:])

    @pytest.mark.parametrize("predictor", [2, 255])
    def test_unknown_predictor(self, predictor):
        codec, header, payload = self.parts()
        with pytest.raises(ValueError):
            codec.decompress(
                header + payload[:1] + bytes([predictor]) + payload[2:])

    def test_a_wider_width_is_a_length_mismatch_not_a_wrong_array(self):
        codec, header, payload = self.parts()
        with pytest.raises(ValueError):
            codec.decompress(
                header + bytes([payload[0] + 1]) + payload[1:])

    def test_unknown_stage_id_rejected(self):
        codec, header, payload = self.parts()
        with pytest.raises(ValueError):
            codec.decompress(header[:5] + b"\x07" + header[6:] + payload)



#: where the header bytes sit: the DTP1 dtype tag is byte 4 of a tagged
#: blob; the SZL1 frame's flag and entropy id are bytes 4 and 5 of the
#: frame, and its payload (whose first byte is the zlib or fixed stage's
#: width, and the fixed stage's second its predictor) starts at byte 22
TAG_AT, FLAG_AT, ENTROPY_AT, PAYLOAD_AT = 4, 4, 5, 22


def decodes_or_fails_loudly(codec, blob, shape):
    """A defined byte that is not the blob's own: its payload is not that
    stage's, so it decodes to the declared length or raises — never a
    wrong-length array."""
    try:
        out = codec.decompress(blob)
    except ACCEPTABLE:
        return
    assert out.shape == shape


def sweep_byte(codec, blob, pos, defined):
    """Write every value into ``blob[pos]``: an undefined one raises
    ``ValueError``, the blob's own decodes as the blob does, and another
    defined one decodes or fails loudly."""
    want = codec.decompress(blob)
    for value in range(256):
        damaged = blob[:pos] + bytes([value]) + blob[pos + 1:]
        if value not in defined:
            with pytest.raises(ValueError):
                codec.decompress(damaged)
                pytest.fail(f"byte {pos} = {value} decoded")
        elif value == blob[pos]:
            assert np.array_equal(codec.decompress(damaged), want)
        else:
            decodes_or_fails_loudly(codec, damaged, want.shape)


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128],
                         ids=["c64", "c128"])
@pytest.mark.parametrize("stage", sorted(SZL1_STAGES))
class TestEveryUndefinedHeaderByte:
    """The forward-compatibility rule as a standing test: a decoder fed a
    dtype tag, frame flag, entropy stage, width or predictor it does not
    define raises ``ValueError``; it never decodes it as a stage it
    knows. Every blob here is one ``TestEverySZL1Stage`` builds."""

    @staticmethod
    def frame(stage, dtype):
        """The codec, the input, the blob and where its SZL1 frame starts
        (after the DTP1 tag a complex64 blob carries)."""
        codec, x, blob = TestEverySZL1Stage.blob(stage, dtype)
        at = len(DTYPE_MAGIC) + 1 if blob.startswith(DTYPE_MAGIC) else 0
        return codec, x, blob, at

    def test_dtype_tag(self, stage, dtype):
        codec, x, blob, at = self.frame(stage, dtype)
        if at:
            sweep_byte(codec, blob, TAG_AT, {1})
            return
        # a complex128 blob carries no tag: prefix each one
        for value in range(256):
            tagged = DTYPE_MAGIC + bytes([value]) + blob
            if value == 1:
                decodes_or_fails_loudly(codec, tagged, x.shape)
            else:
                with pytest.raises(ValueError):
                    codec.decompress(tagged)

    def test_frame_flag(self, stage, dtype):
        codec, _x, blob, at = self.frame(stage, dtype)
        sweep_byte(codec, blob, at + FLAG_AT, {0, 1, 2})
        for flag in range(3, 256):
            damaged = blob[:at + FLAG_AT] + bytes([flag]) + \
                blob[at + FLAG_AT + 1:]
            assert blob_entropy(damaged) is None

    def test_entropy_stage(self, stage, dtype):
        codec, _x, blob, at = self.frame(stage, dtype)
        # a raw frame defines no entropy stage but the zlib it deflates
        # with, and a uniform frame none but that same id 0; id 1 was the
        # deleted Huffman stage and is undefined now
        defined = {0} if stage in ("raw", "uniform") else {0, 2}
        sweep_byte(codec, blob, at + ENTROPY_AT, defined)
        for value in set(range(256)) - defined:
            damaged = blob[:at + ENTROPY_AT] + bytes([value]) + \
                blob[at + ENTROPY_AT + 1:]
            assert blob_entropy(damaged) is None



@pytest.mark.parametrize("dtype", [np.complex64, np.complex128],
                         ids=["c64", "c128"])
@pytest.mark.parametrize("stage", ["fixed", "zlib"])
def test_every_undefined_stage_width_and_predictor(stage, dtype):
    """The zlib stage's width byte, and the fixed stage's width and
    predictor bytes (the raw stage has none)."""
    codec, _x, blob, at = TestEveryUndefinedHeaderByte.frame(stage, dtype)
    pos = at + PAYLOAD_AT
    if stage == "zlib":
        sweep_byte(codec, blob, pos, {1, 2, 4, 8})
    else:
        sweep_byte(codec, blob, pos, set(range(1, 65)))
        sweep_byte(codec, blob, pos + 1, {0, 1})
