"""The lossless frame's three modes: ``LSL1`` (deflate), ``LSR1`` (raw)
and ``LSU1`` (uniform: one amplitude, repeated).

zlib stores a chunk its sampling probe finds dense in the raw frame, a
chunk of one repeated amplitude as that amplitude, and deflates every
other; ``null`` always writes raw, lzma and bz2 always deflate, and every
byte codec reads all three. A damaged or foreign header fails loudly,
never as a wrong array: an undefined magic byte, a raw or uniform payload
one byte off, a uniform frame of no amplitudes, a deflate stream that
inflates past its count or carries trailing bytes (also in szlike's two
zlib sites), and a frame handed to a decoder from before it.
"""

import hashlib
import math
import struct
import zlib
from unittest import mock

import numpy as np
import pytest

from repro.circuits import qft, vqe_ansatz
from repro.compression import (Bz2Compressor, LzmaCompressor,
                               NullCompressor, SZLikeCompressor,
                               ZlibCompressor, get_compressor)
from repro.compression import lossless
from repro.compression.interface import (DTYPE_MAGIC, frame_dtype,
                                         inflate_exact)
from repro.compression.lossless import blob_frame
from repro.compression.szlike import blob_entropy
from repro.core import MemQSim
from repro.device import DeviceSpec
from repro.memory import load_store, save_store
from tests.compression.test_robustness import sweep_byte

DTYPES = {"c128": np.complex128, "c64": np.complex64}
#: chunk sizes in amplitudes: 1 KiB and 16 KiB of complex128
SIZES = (64, 1024)


def noise(n, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
        / np.sqrt(2 * n)


def uniform(n):
    return np.full(n, 1 / np.sqrt(n), dtype=np.complex128)


def structured(n):
    """A chunk the probe finds a repeat in that is not uniform: a uniform
    head and a zero tail."""
    x = uniform(n)
    x[n // 2:] = 0
    return x


def frame_at(blob):
    """Where the lossless frame starts (after a DTP1 tag)."""
    return frame_dtype(blob)[1]


@pytest.fixture(params=sorted(DTYPES))
def dtype(request):
    return DTYPES[request.param]


class TestWhichFrame:
    @pytest.mark.parametrize("n", SIZES)
    def test_zlib_stores_a_dense_chunk_raw(self, n, dtype):
        x = noise(n).astype(dtype)
        blob = ZlibCompressor().compress(x)
        assert blob_frame(blob) == "raw"
        assert len(blob) == frame_at(blob) + 12 + x.nbytes
        assert np.array_equal(ZlibCompressor().decompress(blob), x)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("share", [1 / 8, 1 / 4, 1 / 2])
    @pytest.mark.parametrize("tail", ["zero", "constant"])
    def test_a_dense_head_with_a_sparse_tail_deflates(self, n, share, tail,
                                                      dtype):
        # the probe samples across the whole chunk: a tail it cannot see
        # would store bytes deflate removes
        x = noise(n).astype(dtype)
        x[n - int(n * share):] = 0 if tail == "zero" else 0.25 - 0.5j
        blob = ZlibCompressor().compress(x)
        assert blob_frame(blob) == "deflate"
        assert len(blob) < frame_at(blob) + 12 + x.nbytes
        assert np.array_equal(ZlibCompressor().decompress(blob), x)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("qubit", [0, 1, 3, 5])
    def test_a_local_qubits_zero_half_deflates(self, n, qubit, dtype):
        # an amplitude whose bit `qubit` is set is zero: a power-of-two
        # period an even stride could sample on one side of only
        x = noise(n).astype(dtype)
        x[(np.arange(n) >> qubit) & 1 == 1] = 0
        assert blob_frame(ZlibCompressor().compress(x)) == "deflate"

    @pytest.mark.parametrize("n", SIZES)
    def test_a_real_state_deflates(self, n):
        # a complex128 chunk's zero imaginary plane is half its words
        x = noise(n).real.astype(np.complex128)
        assert blob_frame(ZlibCompressor().compress(x)) == "deflate"

    @pytest.mark.parametrize("n", [2, 5, 16, 64, 1024])
    def test_uniform_and_zero_chunks_are_one_amplitude(self, n, dtype):
        for x in (np.zeros(n, dtype), uniform(n).astype(dtype)):
            blob = ZlibCompressor().compress(x)
            assert blob_frame(blob) == "uniform"
            assert len(blob) == frame_at(blob) + 12 + x.itemsize
            assert np.array_equal(ZlibCompressor().decompress(blob), x)

    @pytest.mark.parametrize("n", [2, 5, 16, 64, 1024])
    def test_uniform_and_zero_chunks_deflate(self, n, dtype):
        # under lzma and bz2, A2's ratio references: only zlib stores
        # them as one amplitude
        for x in (np.zeros(n, dtype), uniform(n).astype(dtype)):
            for codec in (LzmaCompressor(), Bz2Compressor()):
                blob = codec.compress(x)
                assert blob_frame(blob) == "deflate"
                assert np.array_equal(codec.decompress(blob), x)

    @pytest.mark.parametrize("n", [4, 5, 16, 64, 1024])
    def test_a_structured_chunk_still_deflates(self, n, dtype):
        x = structured(n).astype(dtype)
        blob = ZlibCompressor().compress(x)
        assert blob_frame(blob) == "deflate"
        assert np.array_equal(ZlibCompressor().decompress(blob), x)

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_chunks_round_trip(self, n, dtype):
        for x in (np.zeros(n, dtype), noise(n).astype(dtype)):
            back = ZlibCompressor().decompress(ZlibCompressor().compress(x))
            assert back.dtype == x.dtype and np.array_equal(back, x)

    def test_null_writes_raw_and_lzma_bz2_always_compress(self, dtype):
        x = noise(256).astype(dtype)
        assert blob_frame(NullCompressor().compress(x)) == "raw"
        assert blob_frame(NullCompressor().compress(
            uniform(256).astype(dtype))) == "raw"
        for codec in (LzmaCompressor(), Bz2Compressor()):
            assert blob_frame(codec.compress(x)) == "deflate"

    @pytest.mark.parametrize("codec", [ZlibCompressor, LzmaCompressor,
                                       Bz2Compressor, NullCompressor])
    def test_every_byte_codec_reads_the_raw_frame(self, codec, dtype):
        x = noise(256).astype(dtype)
        blob = NullCompressor().compress(x)
        assert np.array_equal(codec().decompress(blob), x)

    @pytest.mark.parametrize("codec", [ZlibCompressor, LzmaCompressor,
                                       Bz2Compressor, NullCompressor])
    def test_every_byte_codec_reads_the_uniform_frame(self, codec, dtype):
        x = uniform(256).astype(dtype)
        blob = ZlibCompressor().compress(x)
        assert blob_frame(blob) == "uniform"
        out = np.empty_like(x)
        assert codec().decompress(blob, out=out) is out
        assert np.array_equal(out, x)

    def test_null_refuses_a_deflate_frame(self):
        blob = ZlibCompressor().compress(structured(64))
        assert blob_frame(blob) == "deflate"
        with pytest.raises(ValueError):
            NullCompressor().decompress(blob)

    def test_the_frame_is_sniffed_through_the_dtype_tag(self):
        blob = ZlibCompressor().compress(noise(64).astype(np.complex64))
        assert blob.startswith(DTYPE_MAGIC)
        assert blob_frame(blob) == "raw"
        assert blob_frame(SZLikeCompressor().compress(noise(64))) is None
        assert blob_frame(b"") is None


def blobs():
    """``(frame, blob)``: one blob of each frame in each precision."""
    for dtype in DTYPES.values():
        yield "raw", ZlibCompressor().compress(noise(128).astype(dtype))
        yield "deflate", ZlibCompressor().compress(
            structured(128).astype(dtype))
        yield "uniform", ZlibCompressor().compress(uniform(128).astype(dtype))


BLOBS = list(blobs())
IDS = [f"{frame}-{'c64' if blob.startswith(DTYPE_MAGIC) else 'c128'}"
       for frame, blob in BLOBS]


@pytest.mark.parametrize("frame,blob", BLOBS, ids=IDS)
class TestTheHeaderFailsLoudly:
    def test_every_magic_byte(self, frame, blob):
        assert blob_frame(blob) == frame
        codec = ZlibCompressor()
        at = frame_at(blob)
        # the third magic byte names the frame ('L' deflate, 'R' raw, 'U'
        # uniform); the other three have one defined value each
        for i, defined in enumerate((b"L", b"S", b"LRU", b"1")):
            sweep_byte(codec, blob, at + i, set(defined))

    def test_the_other_frames_magic_raises(self, frame, blob):
        at = frame_at(blob)
        for other in set(b"LRU") - {blob[at + 2]}:
            damaged = blob[:at + 2] + bytes((other,)) + blob[at + 3:]
            with pytest.raises((ValueError, zlib.error)):
                ZlibCompressor().decompress(damaged)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_a_payload_one_byte_off_raises(self, frame, blob, delta):
        damaged = blob[:delta] if delta < 0 else blob + b"\0"
        with pytest.raises((ValueError, zlib.error)):
            ZlibCompressor().decompress(damaged)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_a_count_one_off_raises(self, frame, blob, delta):
        at = frame_at(blob) + 4
        (n,) = struct.unpack_from("<Q", blob, at)
        damaged = blob[:at] + struct.pack("<Q", n + delta) + blob[at + 8:]
        if frame == "uniform":
            # the count is a uniform frame's only length, so nothing in the
            # frame can contradict it; a checkpoint's per-blob CRC does
            assert ZlibCompressor().decompress(damaged).shape == (n + delta,)
            return
        with pytest.raises(ValueError):
            ZlibCompressor().decompress(damaged)

    def test_a_count_of_zero_raises(self, frame, blob):
        at = frame_at(blob) + 4
        damaged = blob[:at] + struct.pack("<Q", 0) + blob[at + 8:]
        with pytest.raises(ValueError):
            ZlibCompressor().decompress(damaged)

    def test_an_lsl1_only_decoder_rejects_the_newer_frames(self, frame, blob):
        if frame != "deflate":
            with pytest.raises(ValueError, match="not a lossless blob"):
                lsl1_only_decompress(blob)
        else:
            assert np.array_equal(lsl1_only_decompress(blob),
                                  ZlibCompressor().decompress(blob))

    def test_a_decoder_without_the_uniform_frame_rejects_it(self, frame,
                                                             blob):
        if frame == "uniform":
            with pytest.raises(ValueError, match="not a lossless blob"):
                lsl1_lsr1_decompress(blob)
        else:
            assert np.array_equal(lsl1_lsr1_decompress(blob),
                                  ZlibCompressor().decompress(blob))


def lsl1_only_decompress(blob):
    """The zlib decoder as it was before the raw frame: ``LSL1`` only."""
    dtype, at = frame_dtype(blob)
    if blob[at:at + 4] != b"LSL1":
        raise ValueError("not a lossless blob")
    (n,) = struct.unpack_from("<Q", blob, at + 4)
    raw = zlib.decompress(memoryview(blob)[at + 12:])
    return np.frombuffer(raw, dtype=dtype, count=n).copy()


def lsl1_lsr1_decompress(blob):
    """The zlib decoder as it was before the uniform frame: ``LSL1`` and
    ``LSR1``, each checked against its count."""
    dtype, at = frame_dtype(blob)
    magic = blob[at:at + 4]
    if magic not in (b"LSL1", b"LSR1"):
        raise ValueError("not a lossless blob")
    (n,) = struct.unpack_from("<Q", blob, at + 4)
    raw = memoryview(blob)[at + 12:]
    if magic == b"LSL1":
        raw = inflate_exact(raw, n * dtype.itemsize)
    if len(raw) != n * dtype.itemsize:
        raise ValueError("payload does not match the count")
    return np.frombuffer(raw, dtype=dtype).copy()


class TestStrictInflate:
    DATA = bytes(range(256)) * 4

    def test_an_exact_stream_inflates(self):
        assert inflate_exact(zlib.compress(self.DATA, 1), 1024) == self.DATA
        assert inflate_exact(zlib.compress(b""), 0) == b""

    @pytest.mark.parametrize("size", [0, 1023, 1025, 1 << 40])
    def test_any_other_size_raises(self, size):
        with pytest.raises(ValueError):
            inflate_exact(zlib.compress(self.DATA, 1), size)

    def test_trailing_bytes_raise(self):
        with pytest.raises(ValueError):
            inflate_exact(zlib.compress(self.DATA, 1) + b"\0", 1024)

    def test_a_truncated_stream_raises(self):
        with pytest.raises((ValueError, zlib.error)):
            inflate_exact(zlib.compress(self.DATA, 1)[:-5], 1024)

    def test_an_impossible_size_raises(self):
        with pytest.raises(ValueError):
            inflate_exact(zlib.compress(b""), 1 << 64)

    def test_lsl1_inflating_past_its_count_raises(self, dtype):
        # the frame's count says n, the stream holds n + 1 amplitudes
        x = structured(65).astype(dtype)
        blob = ZlibCompressor().compress(x)
        at = frame_at(blob) + 4
        short = blob[:at] + struct.pack("<Q", 64) + blob[at + 8:]
        assert lsl1_only_decompress(short).shape == (64,)  # the old reading
        with pytest.raises(ValueError):
            ZlibCompressor().decompress(short)

    def test_lsl1_trailing_bytes_raise(self):
        blob = ZlibCompressor().compress(structured(64))
        with pytest.raises(ValueError):
            ZlibCompressor().decompress(blob + b"\0")

    @pytest.mark.parametrize("stage", ["raw", "zlib"])
    def test_szlike_zlib_sites_refuse_trailing_bytes(self, stage, dtype):
        if stage == "raw":
            codec, x = SZLikeCompressor(error_bound=1e-16), noise(256)
        else:
            t = np.linspace(0, 4 * np.pi, 256)
            codec, x = SZLikeCompressor(entropy="zlib"), np.exp(1j * t) / 16
        blob = codec.compress(x.astype(dtype))
        assert blob_entropy(blob) == stage
        codec.decompress(blob)
        with pytest.raises(ValueError):
            codec.decompress(blob + b"\0")

    def test_szlike_raw_escape_inflating_past_its_count_raises(self, dtype):
        codec = SZLikeCompressor(error_bound=1e-16)
        blob = codec.compress(noise(256).astype(dtype))
        assert blob_entropy(blob) == "raw"
        at = frame_at(blob) + 6
        short = blob[:at] + struct.pack("<Q", 255) + blob[at + 8:]
        with pytest.raises(ValueError):
            codec.decompress(short)


def digest(store):
    h = hashlib.sha256()
    for k in range(store.layout.num_chunks):
        h.update(np.ascontiguousarray(store.load(k),
                                      dtype=np.complex128).tobytes())
    return h.hexdigest()


def frames(store):
    return sorted(blob_frame(store.get_blob(k))
                  for k in range(store.layout.num_chunks))


class TestCheckpoints:
    @staticmethod
    def run_vqe():
        params = np.random.default_rng(0).uniform(0, 2 * math.pi, 60)
        return MemQSim(chunk_qubits=6, compressor="zlib",
                       device=DeviceSpec(memory_bytes=8 << 10)).run(
                           vqe_ansatz(10, layers=3, params=params))

    @staticmethod
    def run_qft():
        return MemQSim(chunk_qubits=6, compressor="zlib").run(qft(10))

    def test_raw_frames_round_trip_to_the_same_digest(self, tmp_path):
        result = self.run_vqe()
        assert "raw" in frames(result.store)
        save_store(result.store, tmp_path / "raw.mqs")
        back = load_store(tmp_path / "raw.mqs", ZlibCompressor())
        assert frames(back) == frames(result.store)
        assert digest(back) == result.state_digest()

    def test_uniform_frames_round_trip_to_the_same_digest(self, tmp_path):
        result = self.run_qft()
        assert "uniform" in frames(result.store)
        save_store(result.store, tmp_path / "uniform.mqs")
        back = load_store(tmp_path / "uniform.mqs", ZlibCompressor())
        assert frames(back) == frames(result.store)
        assert digest(back) == result.state_digest()

    def test_a_checkpoint_of_lsl1_frames_only_still_loads(self, tmp_path):
        # what a writer without the raw frame saved: every chunk deflated
        with mock.patch.object(lossless, "_is_noise", lambda words: False), \
                mock.patch.object(lossless, "uniform_amplitude",
                                  lambda data, words=None: None):
            result = self.run_vqe()
            assert set(frames(result.store)) == {"deflate"}
            save_store(result.store, tmp_path / "lsl1.mqs")
        back = load_store(tmp_path / "lsl1.mqs", get_compressor("zlib"))
        assert set(frames(back)) == {"deflate"}
        assert digest(back) == self.run_vqe().state_digest()

    def test_a_checkpoint_without_uniform_frames_still_loads(self, tmp_path):
        # what a writer without the uniform frame saved (MQS3): a qft
        # state's uniform chunks, its zero blob among them, deflated
        with mock.patch.object(lossless, "uniform_amplitude",
                               lambda data, words=None: None):
            result = self.run_qft()
            assert set(frames(result.store)) == {"deflate"}
            save_store(result.store, tmp_path / "mqs3.mqs")
        assert (tmp_path / "mqs3.mqs").read_bytes()[:4] == b"MQS3"
        back = load_store(tmp_path / "mqs3.mqs", get_compressor("zlib"))
        assert set(frames(back)) == {"deflate"}
        assert digest(back) == self.run_qft().state_digest()

    def test_a_zero_start_qft_stores_no_chunk_raw(self):
        # its chunks are one amplitude repeated, or a few distinct ones
        assert set(frames(self.run_qft().store)) <= {"uniform", "deflate"}
