"""Unit tests for chunk-store persistence (checkpoint/restore)."""

import logging
import struct
import zlib

import numpy as np
import pytest

from repro.compression import get_compressor
from repro.memory import (
    ChunkLayout,
    CompressedChunkStore,
    MemoryTracker,
    StoreFormatError,
    load_store,
    save_store,
)


def make_store(n=6, c=3, codec="zlib"):
    lay = ChunkLayout(n, c)
    return CompressedChunkStore(lay, get_compressor(codec), MemoryTracker())


class TestRoundTrip:
    def test_zero_state(self, tmp_path):
        store = make_store()
        store.init_zero_state()
        p = tmp_path / "s.mqs"
        save_store(store, p)
        back = load_store(p, get_compressor("zlib"))
        assert np.array_equal(back.to_statevector(), store.to_statevector())

    def test_random_state(self, tmp_path, random_state_fn):
        store = make_store()
        v = random_state_fn(6, seed=1)
        store.init_from_statevector(v)
        p = tmp_path / "s.mqs"
        nbytes = save_store(store, p)
        assert nbytes == p.stat().st_size
        back = load_store(p, get_compressor("zlib"))
        assert np.array_equal(back.to_statevector(), v)

    def test_zero_blob_sharing_preserved(self, tmp_path):
        store = make_store(8, 3)
        store.init_zero_state()
        p = tmp_path / "s.mqs"
        save_store(store, p)
        # shared blobs stored once: file much smaller than chunks * blob
        per_blob = len(store._zero_blob)
        assert p.stat().st_size < store.layout.num_chunks * per_blob

    def test_tracker_populated_on_load(self, tmp_path):
        store = make_store()
        store.init_zero_state()
        p = tmp_path / "s.mqs"
        save_store(store, p)
        tracker = MemoryTracker()
        back = load_store(p, get_compressor("zlib"), tracker)
        assert tracker.current("chunk_store") == back.compressed_nbytes()

    def test_uninitialized_chunks_survive(self, tmp_path):
        store = make_store()
        # only chunk 0 initialized
        store.store(0, np.zeros(8, dtype=np.complex128)) if False else None
        store._set_blob(0, store.compressor.compress(np.ones(8, dtype=np.complex128) / np.sqrt(8)))
        p = tmp_path / "s.mqs"
        save_store(store, p)
        back = load_store(p, get_compressor("zlib"))
        back.load(0)
        with pytest.raises(KeyError):
            back.load(1)

    def test_lossy_store_roundtrip(self, tmp_path, random_state_fn):
        lay = ChunkLayout(6, 3)
        comp = get_compressor("szlike", error_bound=1e-6)
        store = CompressedChunkStore(lay, comp, MemoryTracker())
        store.init_from_statevector(random_state_fn(6, seed=2))
        p = tmp_path / "s.mqs"
        save_store(store, p)
        back = load_store(p, get_compressor("szlike", error_bound=1e-6))
        # blobs are carried verbatim: decompressions agree exactly
        assert np.array_equal(back.to_statevector(), store.to_statevector())


class TestValidation:
    def test_magic_checked(self, tmp_path):
        p = tmp_path / "bad.mqs"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(StoreFormatError):
            load_store(p, get_compressor("zlib"))

    def test_compressor_name_checked(self, tmp_path):
        store = make_store(codec="zlib")
        store.init_zero_state()
        p = tmp_path / "s.mqs"
        save_store(store, p)
        with pytest.raises(StoreFormatError):
            load_store(p, get_compressor("lzma"))

    def test_truncation_detected(self, tmp_path, random_state_fn):
        store = make_store()
        store.init_from_statevector(random_state_fn(6, seed=3))
        p = tmp_path / "s.mqs"
        save_store(store, p)
        data = p.read_bytes()
        p.write_bytes(data[:-10])
        with pytest.raises(StoreFormatError):
            load_store(p, get_compressor("zlib"))


def checkpoint_of(tmp_path, precision):
    """A qft(8) zlib checkpoint: header, shared zero blob, live blobs."""
    from repro.circuits import qft
    from repro.core import MemQSim

    p = tmp_path / f"qft8-{precision}.mqs"
    MemQSim(chunk_qubits=4, compressor="zlib",
            precision=precision).run(qft(8)).save_state(p)
    return p, p.read_bytes()


@pytest.mark.parametrize("precision", ["c128", "c64"])
class TestEveryFrameOffset:
    """Every way to cut a checkpoint short is a typed error (``MQS3`` in
    both precisions), and so is anything after its last blob."""

    def test_truncation(self, tmp_path, precision):
        p, data = checkpoint_of(tmp_path, precision)
        assert data[:4] == b"MQS3"
        want = load_store(p, get_compressor("zlib")).to_statevector()
        for cut in range(len(data)):
            p.write_bytes(data[:cut])
            with pytest.raises(StoreFormatError):
                load_store(p, get_compressor("zlib"))
        p.write_bytes(data)
        assert np.array_equal(
            load_store(p, get_compressor("zlib")).to_statevector(), want)

    @pytest.mark.parametrize("tail", [b"\0", b"junk", b"\0" * 8])
    def test_trailing_bytes_rejected(self, tmp_path, precision, tail):
        p, data = checkpoint_of(tmp_path, precision)
        p.write_bytes(data + tail)
        with pytest.raises(StoreFormatError, match="after the last blob"):
            load_store(p, get_compressor("zlib"))

    def test_every_header_bit_flip(self, tmp_path, precision):
        """Magic through ``num_chunks``: flipping any one bit is a typed
        error, never a bare ``ValueError`` from the layout."""
        p, data = checkpoint_of(tmp_path, precision)
        header = 4 + 1 + 8 + 4 + len(b"zlib") + 8
        for bit in range(8 * header):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            p.write_bytes(bytes(flipped))
            with pytest.raises(StoreFormatError):
                load_store(p, get_compressor("zlib"))


def blob_records(data):
    """``(start, end)`` of every blob record of an ``MQS3`` frame — its
    length, its CRC32 and its bytes; the zero blob's first."""
    (name_len,) = struct.unpack_from("<I", data, 13)
    at = 17 + name_len
    (num_chunks,) = struct.unpack_from("<Q", data, at)
    at += 8
    records = []
    for k in range(num_chunks + 1):
        (length,) = struct.unpack_from("<Q", data, at)
        if k and length >= (1 << 64) - 2:  # zero reference / uninitialized
            at += 8
            continue
        records.append((at, at + 12 + length))
        at += 12 + length
    assert at == len(data)
    return records


def legacy_frame(store, itemsize=None):
    """The frame a build from before the CRCs wrote: ``MQS1`` (c128, no
    itemsize byte) or, given ``itemsize``, ``MQS2``."""
    name = store.compressor.name.encode()
    head = b"MQS1" if itemsize is None else b"MQS2" + bytes((itemsize,))
    parts = [head, struct.pack("<II", store.layout.num_qubits,
                               store.layout.chunk_qubits),
             struct.pack("<I", len(name)), name,
             struct.pack("<Q", store.layout.num_chunks)]
    zero = store.zero_blob_bytes() or b""
    parts += [struct.pack("<Q", len(zero)), zero]
    for k in range(store.layout.num_chunks):
        if store.is_zero_chunk(k):
            parts.append(struct.pack("<Q", (1 << 64) - 1))
        else:
            blob = store.get_blob(k)
            parts += [struct.pack("<Q", len(blob)), blob]
    return b"".join(parts)


@pytest.mark.parametrize("precision", ["c128", "c64"])
class TestBlobPayloadsAreChecked:
    """``MQS3``: each blob record carries its blob's CRC32, so a flipped
    byte anywhere in one is a typed error, never an array."""

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_a_flipped_byte_in_any_blob_record(self, tmp_path, precision,
                                               where):
        p, data = checkpoint_of(tmp_path, precision)
        records = blob_records(data)
        assert len(records) >= 3  # the zero blob and live blobs
        for start, end in records:
            at = {"first": start, "middle": (start + end) // 2,
                  "last": end - 1}[where]
            for mask in (0x01, 0x80):
                flipped = bytearray(data)
                flipped[at] ^= mask
                p.write_bytes(bytes(flipped))
                with pytest.raises(StoreFormatError):
                    load_store(p, get_compressor("zlib"))

    def test_every_byte_of_one_blob(self, tmp_path, precision):
        p, data = checkpoint_of(tmp_path, precision)
        start, end = blob_records(data)[-1]
        for at in range(start + 12, end):
            flipped = bytearray(data)
            flipped[at] ^= 0x10
            p.write_bytes(bytes(flipped))
            with pytest.raises(StoreFormatError, match="CRC32"):
                load_store(p, get_compressor("zlib"))


class TestTheZeroBlobIsCheckedOnLoad:
    """A load fills a zero chunk instead of decoding it, so the checkpoint's
    zero blob is decoded once, when it loads: one whose CRC32 holds but
    that decodes to anything other than an all-zero chunk is refused."""

    @staticmethod
    def forged(tmp_path, chunk, legacy=False):
        store = make_store(n=5, c=3)
        store.init_zero_state()
        forged = store.compressor.compress(chunk)
        store._zero_blob = forged
        for k in range(1, store.layout.num_chunks):
            store._blobs[k] = forged
        p = tmp_path / "forged.mqs"
        if legacy:
            p.write_bytes(legacy_frame(store))
        else:
            save_store(store, p)
        return p

    @pytest.mark.parametrize("legacy", [False, True])
    def test_a_zero_blob_of_non_zeros(self, tmp_path, legacy):
        p = self.forged(tmp_path, np.full(8, 0.25, dtype=np.complex128),
                        legacy)
        with pytest.raises(StoreFormatError, match="zero blob"):
            load_store(p, get_compressor("zlib"))

    @pytest.mark.parametrize("chunk", [np.zeros(4, dtype=np.complex128),
                                       np.zeros(8, dtype=np.complex64)])
    def test_a_zero_blob_of_the_wrong_shape(self, tmp_path, chunk):
        p = self.forged(tmp_path, chunk)
        with pytest.raises(StoreFormatError, match="zero blob"):
            load_store(p, get_compressor("zlib"))

    def test_a_zero_blob_that_does_not_decode(self, tmp_path):
        p = self.forged(tmp_path, np.zeros(8, dtype=np.complex128))
        data = bytearray(p.read_bytes())
        start, end = blob_records(bytes(data))[0]
        blob = b"\xff" * (end - start - 12)
        data[start + 8:start + 12] = struct.pack("<I", zlib.crc32(blob))
        data[start + 12:end] = blob
        p.write_bytes(bytes(data))
        with pytest.raises(StoreFormatError, match="zero blob does not decode"):
            load_store(p, get_compressor("zlib"))

    def test_a_true_zero_blob_loads_and_fills(self, tmp_path):
        p = self.forged(tmp_path, np.zeros(8, dtype=np.complex128))
        back = load_store(p, get_compressor("zlib"))
        assert back.is_zero_chunk(3)
        assert np.linalg.norm(back.to_statevector()) == 1.0


class TestOlderFrames:
    """``MQS1`` / ``MQS2`` checkpoints written before the CRCs still load,
    with one warning that they are unverified; a magic this build does not
    know does not load."""

    @pytest.mark.parametrize("precision", ["c128", "c64"])
    def test_legacy_frame_loads_the_same_state(self, tmp_path, precision):
        p, _data = checkpoint_of(tmp_path, precision)
        store = load_store(p, get_compressor("zlib"))
        old = tmp_path / "old.mqs"
        old.write_bytes(legacy_frame(
            store, None if precision == "c128" else store.layout.itemsize))
        back = load_store(old, get_compressor("zlib"))
        assert back.layout.itemsize == store.layout.itemsize
        assert np.array_equal(back.to_statevector(), store.to_statevector())
        assert back.zero_blob_bytes() == store.zero_blob_bytes()

    @pytest.mark.parametrize("precision", ["c128", "c64"])
    def test_legacy_frame_warns_it_is_unverified(self, tmp_path, precision,
                                                 caplog):
        p, _data = checkpoint_of(tmp_path, precision)
        store = load_store(p, get_compressor("zlib"))
        old = tmp_path / "old.mqs"
        old.write_bytes(legacy_frame(
            store, None if precision == "c128" else store.layout.itemsize))
        caplog.set_level(logging.WARNING, logger="repro.memory.persist")
        load_store(old, get_compressor("zlib"))
        (warning,) = [r for r in caplog.records
                      if r.levelno >= logging.WARNING]
        magic = "MQS1" if precision == "c128" else "MQS2"
        assert magic in warning.getMessage()
        assert "CRC32" in warning.getMessage()
        assert "writes MQS3" in warning.getMessage()

    @pytest.mark.parametrize("precision", ["c128", "c64"])
    def test_a_checked_frame_does_not_warn(self, tmp_path, precision,
                                           caplog):
        p, _data = checkpoint_of(tmp_path, precision)
        caplog.set_level(logging.WARNING, logger="repro.memory.persist")
        load_store(p, get_compressor("zlib"))
        assert [r for r in caplog.records
                if r.levelno >= logging.WARNING] == []

    @pytest.mark.parametrize("magic", [b"MQS0", b"MQS4", b"MQS\x03"])
    def test_unknown_magic(self, tmp_path, magic):
        p, data = checkpoint_of(tmp_path, "c128")
        p.write_bytes(magic + data[4:])
        with pytest.raises(StoreFormatError, match="not a MEMQSim"):
            load_store(p, get_compressor("zlib"))


def test_a_chunk_count_the_file_cannot_hold_allocates_nothing(tmp_path):
    """40 qubits in 2^39 one-qubit chunks, then an empty zero blob and no
    table: refused before a 2^39-entry blob table is built."""
    p = tmp_path / "crafted.mqs"
    p.write_bytes(b"MQS1" + struct.pack("<III", 40, 1, 4) + b"zlib"
                  + struct.pack("<QQ", 1 << 39, 0))
    assert p.stat().st_size == 36
    with pytest.raises(StoreFormatError, match="cannot fit"):
        load_store(p, get_compressor("zlib"))


class TestAtomicSave:
    def test_a_failed_write_keeps_the_old_checkpoint(self, tmp_path,
                                                     monkeypatch):
        import os

        old = make_store()
        old.init_zero_state()
        p = tmp_path / "s.mqs"
        save_store(old, p)
        before = p.read_bytes()

        def full_disk(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        new = make_store()
        new.init_from_statevector(np.full(64, 0.125, dtype=np.complex128))
        with pytest.raises(OSError, match="No space"):
            save_store(new, p)
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["s.mqs"]

    def test_overwrite_replaces_the_file(self, tmp_path):
        p = tmp_path / "s.mqs"
        p.write_bytes(b"stale")
        store = make_store()
        store.init_zero_state()
        assert save_store(store, p) == p.stat().st_size
        assert [f.name for f in tmp_path.iterdir()] == ["s.mqs"]
        load_store(p, get_compressor("zlib"))


class TestSimulatorIntegration:
    def test_checkpoint_resume_equals_single_run(self, tmp_path, dense):
        from repro.circuits import random_circuit
        from repro.core import MemQSim, MemQSimConfig
        from repro.device import DeviceSpec

        cfg = MemQSimConfig(chunk_qubits=4, compressor="zlib",
                            device=DeviceSpec(memory_bytes=1 << 13))
        first = random_circuit(8, 30, seed=5)
        second = random_circuit(8, 30, seed=6)
        p = tmp_path / "mid.mqs"
        MemQSim(cfg).run(first).save_state(p)
        resumed = MemQSim(cfg).run(second, checkpoint=str(p))
        whole = MemQSim(cfg).run(first.compose(second))
        assert np.allclose(resumed.statevector(), whole.statevector(), atol=1e-12)

    def test_checkpoint_qubit_mismatch(self, tmp_path):
        from repro.circuits import ghz
        from repro.core import MemQSim, MemQSimConfig
        from repro.device import DeviceSpec

        cfg = MemQSimConfig(chunk_qubits=3, compressor="zlib",
                            device=DeviceSpec(memory_bytes=1 << 13))
        p = tmp_path / "s.mqs"
        MemQSim(cfg).run(ghz(6)).save_state(p)
        with pytest.raises(ValueError):
            MemQSim(cfg).run(ghz(7), checkpoint=str(p))

    def test_checkpoint_and_initial_state_exclusive(self, tmp_path):
        from repro.circuits import ghz
        from repro.core import MemQSim
        from repro.statevector import StateVector

        with pytest.raises(ValueError):
            MemQSim().run(ghz(4), initial_state=StateVector(4), checkpoint="x")
