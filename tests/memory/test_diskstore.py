"""Unit tests for the out-of-core store: ``TieredChunkStore`` at RAM
budget 0, where every blob except the pinned zero blob lives in the log."""

import errno
import os
import tempfile

import numpy as np
import pytest

from repro.compression import get_compressor
from repro.memory import (BlobLog, ChunkLayout, MemoryTracker,
                          StoreFormatError, TieredChunkStore)


def disk_store(layout, codec, path, tracker=None, **kw):
    return TieredChunkStore(layout, get_compressor(codec), path, 0,
                            tracker=tracker, **kw)


@pytest.fixture
def store(tmp_path):
    lay = ChunkLayout(8, 3)
    s = disk_store(lay, "zlib", tmp_path / "chunks.log", MemoryTracker())
    yield s
    s.close()


def rand_state(n, seed=0):
    g = np.random.default_rng(seed)
    v = g.standard_normal(1 << n) + 1j * g.standard_normal(1 << n)
    return v / np.linalg.norm(v)


class TestBasics:
    def test_zero_state_roundtrip(self, store):
        store.init_zero_state()
        sv = store.to_statevector()
        assert sv[0] == 1.0 and np.count_nonzero(sv) == 1

    def test_random_state_roundtrip(self, store):
        v = rand_state(8, 1)
        store.init_from_statevector(v)
        assert np.array_equal(store.to_statevector(), v)

    def test_store_load_single_chunk(self, store):
        store.init_zero_state()
        data = rand_state(3, 2)
        store.store(5, data)
        assert np.array_equal(store.load(5), data)

    def test_uninitialized_load_raises(self, store):
        with pytest.raises(KeyError):
            store.load(0)

    def test_zero_blob_shared_on_disk(self, store):
        store.init_zero_state()
        # all-zero chunks share one blob: footprint ~ 2 blobs
        sizes = store.blob_sizes()
        assert store.compressed_nbytes() < sum(sizes)
        assert store.compressed_nbytes() == sizes[0] + sizes[1]
        # ... which stays in RAM, so only chunk 0 was ever written out
        assert store.file_bytes == sizes[0]

    def test_tracker_uses_disk_category(self, store):
        store.init_zero_state()
        assert store.tracker.current("disk_store") == store.file_bytes
        assert store.tracker.current("chunk_store") \
            == len(store.zero_blob_bytes())
        store.init_from_statevector(rand_state(8, 9))
        assert store.tracker.current("disk_store") == store.file_bytes
        assert store.tracker.current("chunk_store") == 0
        assert store.host_blob_bytes() == 0

    def test_validation(self, tmp_path):
        lay = ChunkLayout(4, 2)
        with pytest.raises(ValueError):
            disk_store(lay, "zlib", tmp_path / "x.log", compact_threshold=0.0)
        with pytest.raises(ValueError):
            TieredChunkStore(lay, get_compressor("zlib"), tmp_path / "x.log",
                             -1)


class TestCompaction:
    def test_updates_accumulate_garbage(self, store):
        store.init_from_statevector(rand_state(8, 3))
        before = store.file_bytes
        for k in range(8):
            store.store(k, store.load(k))
        assert store.file_bytes > before or store.compactions > 0

    def test_compaction_preserves_content(self, store):
        v = rand_state(8, 4)
        store.init_from_statevector(v)
        for _ in range(3):
            for k in range(store.layout.num_chunks):
                store.store(k, store.load(k))
        store.compact()
        assert np.array_equal(store.to_statevector(), v)
        assert store.garbage_fraction == pytest.approx(0.0)

    def test_auto_compaction_bounds_file_size(self, tmp_path):
        lay = ChunkLayout(10, 4)
        s = disk_store(lay, "null", tmp_path / "big.log", MemoryTracker(),
                       compact_threshold=0.3)
        try:
            v = rand_state(10, 5)
            s.init_from_statevector(v)
            base = s.compressed_nbytes()
            for _ in range(10):
                for k in range(lay.num_chunks):
                    s.store(k, s.load(k))
            # Without compaction the file would be ~11x the live bytes
            # (~190 KB); auto-compaction caps it near the 64 KiB floor the
            # store uses before it bothers compacting.
            assert s.file_bytes < (1 << 16) + 2 * base
            assert s.compactions > 0
            assert np.array_equal(s.to_statevector(), v)
        finally:
            s.close()

    def test_zero_record_survives_compaction(self, store):
        store.init_zero_state()
        store.compact()
        store.zero_chunk(3)
        assert np.all(store.load(3) == 0)


class TestAFlippedByteFailsLoudly:
    """The log is scratch, so each record carries the CRC32 of its bytes:
    a byte changed on disk behind the store's back is a
    ``StoreFormatError``, never an array — wherever in the record it sits,
    and for a record a compaction re-appended too."""

    @pytest.mark.parametrize("compacted", [False, True],
                             ids=["appended", "rewritten"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_load_raises(self, store, where, compacted):
        v = rand_state(8, 6)
        store.init_from_statevector(v)
        if compacted:
            for k in range(store.layout.num_chunks):
                store.store(k, store.load(k))
            store.compact()
        store.load(5)  # the record reads back once
        off, length, _crc = store._disk[5]
        pos = off + {"first": 0, "middle": length // 2,
                     "last": length - 1}[where]
        with open(store.path, "r+b") as fh:  # a second handle
            fh.seek(pos)
            byte = fh.read(1)[0]
            fh.seek(pos)
            fh.write(bytes([byte ^ 0x01]))
        with pytest.raises(StoreFormatError, match="CRC32"):
            store.load(5)
        # the other records are untouched and still decode
        cs = store.layout.chunk_size
        np.testing.assert_array_equal(store.load(4), v[4 * cs:5 * cs])


def full_disk_after(nbytes):
    """A ``pwrite`` that writes at most ``nbytes`` more bytes (a short
    write, then ``ENOSPC``), and the list of calls it saw."""
    real, left, calls = os.pwrite, [nbytes], []

    def pwrite(fd, data, offset):
        calls.append(offset)
        if left[0] <= 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        part = bytes(data)[:left[0]]
        left[0] -= len(part)
        return real(fd, part, offset)
    return pwrite, calls


class TestAFailedAppend:
    """A disk-tier append that fails (``ENOSPC``, after a short write or
    at once) re-raises and leaves the log, the tracker and the tier as
    they were; the next append lands at the right offset."""

    @pytest.mark.parametrize("written", [0, 5], ids=["at-once", "short"])
    def test_the_log_is_unchanged(self, tmp_path, monkeypatch, written):
        tracker = MemoryTracker()
        log = BlobLog(tmp_path / "blobs.log", tracker=tracker)
        first = log.append(b"first record")
        state = (log.file_bytes, log.live_bytes, tracker.current("disk_store"),
                 tracker.total_current())
        pwrite, calls = full_disk_after(written)
        monkeypatch.setattr(os, "pwrite", pwrite)
        with pytest.raises(OSError) as info:
            log.append(b"x" * 100)
        assert info.value.errno == errno.ENOSPC
        assert calls[0] == first[1]
        assert (log.file_bytes, log.live_bytes, tracker.current("disk_store"),
                tracker.total_current()) == state
        monkeypatch.undo()
        again = log.append(b"the next record")
        assert again[0] == first[0] + first[1]
        assert log.read(again) == b"the next record"
        assert log.read(first) == b"first record"
        log.close()

    def test_a_failed_spill_keeps_the_chunk_in_ram(self, tmp_path,
                                                   monkeypatch):
        tracker = MemoryTracker()
        layout = ChunkLayout(8, 3)
        v = rand_state(8, 2)
        cs = layout.chunk_size
        # room for about three blobs: writes past that spill
        store = TieredChunkStore(layout, get_compressor("zlib"),
                                 tmp_path / "blobs.log", 4 * 16 * cs,
                                 tracker=tracker)
        store.init_from_statevector(v)
        assert store.is_on_disk(0) and store.tier_stats.spills > 0
        # the write of chunk 0 frees its record, then the spill it forces
        # fails: only the write shows
        index = list(store._disk)
        freed = index[0][1]
        index[0] = None
        before = (store.file_bytes, store.disk_blob_bytes() - freed,
                  tracker.current("disk_store"), index,
                  store.tier_stats.spills)
        victim = store._pick_spill_victim()
        blob = store.get_blob(victim)
        pwrite, _calls = full_disk_after(3)
        monkeypatch.setattr(os, "pwrite", pwrite)
        with pytest.raises(OSError):
            store.store(0, v[:cs][::-1].copy())
        assert (store.file_bytes, store.disk_blob_bytes(),
                tracker.current("disk_store"), list(store._disk),
                store.tier_stats.spills) == before
        assert not store.is_on_disk(victim)
        assert store.get_blob(victim) is blob
        assert tracker.current("chunk_store") == store.host_blob_bytes()
        monkeypatch.undo()
        store.store(1, v[cs:2 * cs])  # the fault is gone: spills land
        assert store.tier_stats.spills > before[-1]
        expect = v.copy()
        expect[:cs] = v[:cs][::-1]
        np.testing.assert_array_equal(store.to_statevector(), expect)
        store.close()


def full_disk_at_call(k):
    """A ``pwrite`` whose ``k``-th call (0-based) and every later one fail
    with ``ENOSPC`` before writing anything."""
    real, calls = os.pwrite, [0]

    def pwrite(fd, data, offset):
        calls[0] += 1
        if calls[0] > k:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real(fd, data, offset)
    return pwrite


class TestAFailedCompaction:
    """A compaction writes the survivors to a sibling file and swaps it in
    only when all of them are there: one that hits ``ENOSPC`` at the
    first, a middle or the last re-append re-raises and leaves the log
    readable, its bytes and the tracker as they were."""

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_the_log_stays_readable(self, tmp_path, monkeypatch, where):
        tracker = MemoryTracker()
        lay = ChunkLayout(8, 3)
        store = disk_store(lay, "zlib", tmp_path / "chunks.log", tracker)
        v = rand_state(8, 7)
        store.init_from_statevector(v)
        for k in range(0, lay.num_chunks, 2):  # leave some garbage
            store.store(k, store.load(k)[::-1].copy())
        index = list(store._disk)
        survivors = len({id(rec) for rec in index if rec is not None})
        assert survivors > 2
        blobs = [store.get_blob(k) for k in range(lay.num_chunks)]
        compactions = store.compactions
        state = (store.file_bytes, store.disk_blob_bytes(),
                 tracker.current("disk_store"), tracker.peak("disk_store"),
                 tracker.total_current())
        fail_at = {"first": 0, "middle": survivors // 2,
                   "last": survivors - 1}[where]
        monkeypatch.setattr(os, "pwrite", full_disk_at_call(fail_at))
        with pytest.raises(OSError) as info:
            store.compact()
        assert info.value.errno == errno.ENOSPC
        monkeypatch.undo()
        assert store.compactions == compactions
        assert list(store._disk) == index
        # every read is CRC-checked against its record
        assert [store.get_blob(k) for k in range(lay.num_chunks)] == blobs
        assert (store.file_bytes, store.disk_blob_bytes(),
                tracker.current("disk_store"), tracker.peak("disk_store"),
                tracker.total_current()) == state
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chunks.log"]
        store.compact()  # the fault is gone: it succeeds
        assert store.compactions == compactions + 1
        assert store.garbage_fraction == pytest.approx(0.0)
        assert [store.get_blob(k) for k in range(lay.num_chunks)] == blobs
        assert tracker.current("disk_store") == store.file_bytes
        expect = v.copy()
        cs = lay.chunk_size
        for k in range(0, lay.num_chunks, 2):
            expect[k * cs:(k + 1) * cs] = v[k * cs:(k + 1) * cs][::-1]
        np.testing.assert_array_equal(store.to_statevector(), expect)
        store.close()


class TestIntegration:
    def test_permute(self, store):
        v = rand_state(8, 6)
        store.init_from_statevector(v)
        nc = store.layout.num_chunks
        perm = [k ^ 1 for k in range(nc)]
        before = store.file_bytes
        store.permute(perm)
        assert store.file_bytes == before  # relabeling moves no bytes
        got = store.to_statevector()
        want = v.reshape(nc, -1)[perm].reshape(-1)
        assert np.array_equal(got, want)

    def test_persistence_roundtrip(self, store, tmp_path):
        from repro.memory import load_store, save_store

        v = rand_state(8, 7)
        store.init_from_statevector(v)
        p = tmp_path / "ck.mqs"
        save_store(store, p)
        back = load_store(p, get_compressor("zlib"))
        assert np.array_equal(back.to_statevector(), v)

    def test_scheduler_runs_on_disk_store(self, tmp_path):
        from repro.circuits import random_circuit
        from repro.device import DeviceExecutor, DeviceSpec, Timeline
        from repro.memory import BufferPool
        from repro.pipeline import StageScheduler, plan_stages
        from repro.statevector import DenseSimulator

        lay = ChunkLayout(8, 3)
        tracker = MemoryTracker()
        s = disk_store(lay, "zlib", tmp_path / "sim.log", tracker)
        try:
            s.init_zero_state()
            timeline = Timeline()
            ex = DeviceExecutor(DeviceSpec(memory_bytes=(1 << 5) * 16),
                                timeline=timeline, tracker=tracker)
            pool = BufferPool(2, 1 << 4, tracker)
            sched = StageScheduler(lay, s, ex, pool, timeline)
            circ = random_circuit(8, 50, seed=61)
            sched.run(plan_stages(circ, lay, 1))
            ref = DenseSimulator().run(circ).data
            assert np.allclose(s.to_statevector(), ref, atol=1e-12)
        finally:
            s.close()

    def test_context_manager_removes_file(self, tmp_path, monkeypatch):
        """...when the store created it (anonymous: no name in the temp dir
        even while it is open); a caller's file is only closed."""
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        lay = ChunkLayout(4, 2)
        with disk_store(lay, "zlib", None) as s:
            s.init_from_statevector(rand_state(4))
            assert s.path.name.startswith("memqsim_") and s.file_bytes > 0
            s.compact()
            assert list(tmp_path.iterdir()) == []
            np.testing.assert_array_equal(s.to_statevector(), rand_state(4))
        p = tmp_path / "ctx.log"
        with disk_store(lay, "zlib", p) as s:
            s.init_zero_state()
        assert p.exists()


class TestDiskPlusCache:
    def test_cache_over_disk_store(self, tmp_path):
        from repro.memory import ChunkCache

        lay = ChunkLayout(8, 3)
        tracker = MemoryTracker()
        disk = disk_store(lay, "zlib", tmp_path / "dc.log", tracker)
        try:
            v = rand_state(8, 11)
            disk.init_from_statevector(v)
            cache = ChunkCache(disk, capacity_chunks=4, policy="mru",
                               tracker=tracker)
            # writes are deferred, reads hit, flush lands on disk
            data = cache.load(0)
            data *= -1.0
            cache.store(0, data)
            assert cache.cache_stats.write_hits >= 1
            cache.flush()
            assert np.allclose(disk.load(0), -v[:8])
        finally:
            disk.close()

    def test_memqsim_disk_plus_cache(self, tmp_path):
        from repro.circuits import random_circuit
        from repro.core import MemQSim, MemQSimConfig
        from repro.device import DeviceSpec
        from repro.statevector import DenseSimulator

        circ = random_circuit(8, 40, seed=88)
        cfg = MemQSimConfig(chunk_qubits=4, compressor="zlib",
                            device=DeviceSpec(memory_bytes=1 << 13),
                            disk_path=str(tmp_path / "mc.log"),
                            cache_chunks=6)
        res = MemQSim(cfg).run(circ)
        ref = DenseSimulator().run(circ).data
        assert np.allclose(res.statevector(), ref, atol=1e-12)
        res.store.inner.close()


class TestCompactPermuteFlushInterplay:
    """Satellite contract: compaction x permutation x dirty cache flush.

    Each pairwise interleaving must leave exactly one live record per
    distinct chunk value — no orphaned (leaked) log records, none
    duplicated — and the bytes must survive every ordering.
    """

    def _live_equals_index(self, store):
        # Every chunk is backed by exactly one tier, and the footprint is
        # exactly the sum over unique blobs (the pinned zero blob once,
        # every log record once).
        sizes = store.blob_sizes()
        total = store.host_blob_bytes()
        for k in range(store.layout.num_chunks):
            rec = store._disk[k]
            assert (rec is None) != (store._blobs[k] is None)
            if rec is not None:
                total += rec[1]
        assert store.compressed_nbytes() == total
        return sizes

    def test_permute_then_compact(self, store):
        v = rand_state(8, 21)
        store.init_from_statevector(v)
        nc = store.layout.num_chunks
        perm = [(k + 5) % nc for k in range(nc)]
        store.permute(perm)
        store.compact()
        self._live_equals_index(store)
        want = v.reshape(nc, -1)[perm].reshape(-1)
        assert np.array_equal(store.to_statevector(), want)
        assert store.garbage_fraction == pytest.approx(0.0)

    def test_dirty_flush_then_compact(self, store):
        from repro.memory import ChunkCache

        v = rand_state(8, 22)
        store.init_from_statevector(v)
        cache = ChunkCache(store, capacity_chunks=4, policy="lru")
        for k in range(store.layout.num_chunks):
            cache.store(k, -cache.load(k))
        cache.flush()  # every store above rewrote a record -> garbage
        store.compact()
        self._live_equals_index(store)
        assert np.array_equal(store.to_statevector(), -v)

    def test_flush_after_permute_lands_on_relabeled_chunks(self, store):
        from repro.memory import ChunkCache

        v = rand_state(8, 23)
        store.init_from_statevector(v)
        cache = ChunkCache(store, capacity_chunks=4, policy="mru")
        cache.store(0, np.zeros(8, dtype=np.complex128))
        nc = store.layout.num_chunks
        perm = [k ^ 1 for k in range(nc)]
        # the cache's permute contract: flush dirty state, then relabel
        cache.permute(perm)
        store.compact()
        self._live_equals_index(store)
        got = store.to_statevector()
        want = v.copy()
        want[:8] = 0.0  # the dirty write hit pre-permute chunk 0...
        want = want.reshape(nc, -1)[perm].reshape(-1)
        assert np.array_equal(got, want)

    def test_repeated_cycles_never_leak_records(self, store):
        from repro.memory import ChunkCache

        v = rand_state(8, 24)
        store.init_from_statevector(v)
        cache = ChunkCache(store, capacity_chunks=4, policy="lru")
        nc = store.layout.num_chunks
        for cycle in range(4):
            for k in range(nc):
                cache.store(k, cache.load(k) * np.exp(0.25j * cycle))
            cache.permute([(k + 1) % nc for k in range(nc)])
            store.compact()
            self._live_equals_index(store)
        assert store.garbage_fraction == pytest.approx(0.0)
