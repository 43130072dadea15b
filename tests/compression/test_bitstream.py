"""Unit tests for bit-level I/O."""

import numpy as np
import pytest

from repro.compression.bitstream import BitReader, BitWriter, pack_codes, unpack_bits


class TestBitWriterReader:
    def test_roundtrip_fields(self):
        w = BitWriter()
        fields = [(5, 3), (0, 1), (1023, 10), (1, 1), (0xABCD, 16)]
        for v, n in fields:
            w.write(v, n)
        r = BitReader(w.getvalue())
        for v, n in fields:
            assert r.read(n) == v

    def test_bit_length(self):
        w = BitWriter()
        w.write(3, 2)
        w.write(1, 5)
        assert w.bit_length == 7

    def test_zero_width_write(self):
        w = BitWriter()
        w.write(0, 0)
        assert w.bit_length == 0

    def test_overflow_value_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(4, 2)

    def test_read_past_end(self):
        r = BitReader(b"\xff")
        r.read(8)
        with pytest.raises(ValueError):
            r.read(1)

    def test_padding_is_zero(self):
        w = BitWriter()
        w.write(1, 1)
        data = w.getvalue()
        assert data == b"\x80"

    def test_bits_remaining(self):
        r = BitReader(b"\x00\x00")
        assert r.bits_remaining == 16
        r.read(5)
        assert r.bits_remaining == 11

    def test_long_value(self):
        w = BitWriter()
        w.write((1 << 50) - 3, 50)
        r = BitReader(w.getvalue())
        assert r.read(50) == (1 << 50) - 3


class TestPackCodes:
    def test_empty(self):
        packed, bits = pack_codes(np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint8))
        assert packed == b"" and bits == 0

    def test_matches_bitwriter(self):
        rng = np.random.default_rng(1)
        lengths = rng.integers(1, 20, size=200).astype(np.uint8)
        codes = np.array(
            [rng.integers(0, 1 << int(l)) for l in lengths], dtype=np.uint64
        )
        packed, total = pack_codes(codes, lengths)
        w = BitWriter()
        for c, l in zip(codes, lengths):
            w.write(int(c), int(l))
        assert packed == w.getvalue()
        assert total == int(lengths.sum())

    def test_single_long_code(self):
        packed, total = pack_codes(
            np.array([0x0F0F0F0F0F], dtype=np.uint64), np.array([40], dtype=np.uint8)
        )
        assert total == 40
        r = BitReader(packed)
        assert r.read(40) == 0x0F0F0F0F0F

    def test_all_zero_lengths(self):
        # all-zero widths: the block streamer must short-circuit instead of
        # dividing by max_len == 0
        packed, bits = pack_codes(
            np.zeros(16, dtype=np.uint64), np.zeros(16, dtype=np.uint8))
        assert packed == b"" and bits == 0

    def test_stream_crossing_block_boundary_byte_identical(self):
        # 2^19 length-8 codes = 4 Mbit, several _PACK_BLOCK_BITS blocks; the
        # packed stream of byte-aligned fields is exactly the raw bytes
        from repro.compression.bitstream import _PACK_BLOCK_BITS

        n = (1 << 19) + 333
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 256, size=n).astype(np.uint64)
        lengths = np.full(n, 8, dtype=np.uint8)
        assert n * 8 > 2 * _PACK_BLOCK_BITS
        packed, total = pack_codes(codes, lengths)
        assert total == n * 8
        assert packed == codes.astype(np.uint8).tobytes()

    def test_mixed_lengths_crossing_block_boundary(self):
        # unaligned fields spanning a block edge must match the sequential
        # BitWriter reference bit for bit
        from repro.compression.bitstream import _PACK_BLOCK_BITS

        rng = np.random.default_rng(4)
        lengths = rng.integers(1, 56, size=90_000).astype(np.uint8)
        codes = (rng.integers(0, 1 << 62, size=90_000).astype(np.uint64)
                 & ((np.uint64(1) << lengths.astype(np.uint64)) - np.uint64(1)))
        assert int(lengths.sum()) > _PACK_BLOCK_BITS
        packed, total = pack_codes(codes, lengths)
        w = BitWriter()
        for c, l in zip(codes, lengths):
            w.write(int(c), int(l))
        assert packed == w.getvalue()
        assert total == int(lengths.astype(np.int64).sum())

    def test_unpack_bits_roundtrip(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=77).astype(np.uint8)
        packed = np.packbits(bits).tobytes()
        back = unpack_bits(packed, 77)
        assert np.array_equal(back, bits)
