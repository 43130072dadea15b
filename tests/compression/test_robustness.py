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
from repro.compression.interface import split_dtype
from repro.compression.szlike import blob_entropy

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


#: stage -> (compressor options, input builder): one blob per SZL1 stage,
#: not whichever stage `auto` happens to pick for one noisy sample
SZL1_STAGES = {
    "raw": ({"error_bound": 1e-16}, _noise),
    "zlib": ({"entropy": "zlib"}, _smooth),
    "huffman": ({"entropy": "huffman", "error_bound": 1e-3}, _smooth),
    "fixed": ({}, _noise),
}


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128],
                         ids=["c64", "c128"])
@pytest.mark.parametrize("stage", sorted(SZL1_STAGES))
class TestEverySZL1Stage:
    @staticmethod
    def blob(stage, dtype):
        options, build = SZL1_STAGES[stage]
        codec = get_compressor("szlike", **options)
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
        for pos in (len(blob) // 2, 3 * len(blob) // 4, len(blob) - 1):
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
