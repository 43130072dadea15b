"""CodecWorkerPool: serial fallback, process workers, shm, crash recovery."""

import os
import pickle

import numpy as np
import pytest

from repro.compression import get_compressor
from repro.compression.lossless import ZlibCompressor
from repro.parallel import CodecWorkerPool, auto_workers
from repro.telemetry import Telemetry


def _payload(n=256, seed=0, chunks=4):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(chunks):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out.append(v / np.linalg.norm(v))
    return out


def _compress_all(pool, arrays):
    """Submit everything, then collect in submission order."""
    jobs = [pool.submit_compress(i, a) for i, a in enumerate(arrays)]
    return [res.blob for res in pool.drain(jobs)]


def _decompress_all(pool, blobs):
    jobs = [pool.submit_decompress(i, b) for i, b in enumerate(blobs)]
    return [res.array for res in pool.drain(jobs)]


class CrashyCompressor(ZlibCompressor):
    """Crashes the hosting process on compress — in workers only."""

    name = "crashy"

    def __init__(self, parent_pid: int):
        super().__init__()
        self.parent_pid = parent_pid

    def compress(self, data):
        if os.getpid() != self.parent_pid:
            os._exit(13)
        return super().compress(data)


class TestSerialPool:
    def test_workers1_runs_inline(self):
        comp = get_compressor("zlib")
        pool = CodecWorkerPool(comp, workers=1)
        assert not pool.is_parallel
        data = _payload()
        blobs = _compress_all(pool, data)
        assert blobs == [comp.compress(d) for d in data]
        arrs = _decompress_all(pool, blobs)
        for a, d in zip(arrs, data):
            np.testing.assert_array_equal(a, d)
        assert pool.stats.inline_jobs == pool.stats.jobs == 8
        pool.close()

    def test_submit_collect_inline(self):
        pool = CodecWorkerPool(get_compressor("zlib"), workers=1)
        data = _payload(chunks=3)
        jobs = [pool.submit_compress(i, d) for i, d in enumerate(data)]
        assert all(j.done() for j in jobs)
        for i, j in enumerate(jobs):
            res = pool.collect(j)
            assert res.key == i
            assert res.worker_pid == 0
        assert pool.stats.inline_jobs == 3
        pool.close()

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            CodecWorkerPool(get_compressor("zlib"), workers=0)


class TestProcessPool:
    def test_blobs_identical_to_serial(self):
        comp = get_compressor("szlike", error_bound=1e-6)
        data = _payload(chunks=6)
        with CodecWorkerPool(comp, workers=2) as pool:
            if not pool.is_parallel:
                pytest.skip("process pool unavailable on this platform")
            blobs = _compress_all(pool, data)
            assert blobs == [comp.compress(d) for d in data]
            arrs = _decompress_all(pool, blobs)
        for a, d in zip(arrs, data):
            np.testing.assert_array_equal(a, comp.decompress(comp.compress(d)))

    def test_shared_memory_payloads(self):
        comp = get_compressor("zlib")
        data = _payload(n=512, chunks=4)
        with CodecWorkerPool(comp, workers=2, shm_threshold=1) as pool:
            if not pool.is_parallel:
                pytest.skip("process pool unavailable on this platform")
            jobs = [pool.submit_compress(i, d) for i, d in enumerate(data)]
            blobs = [pool.collect(j).blob for j in jobs]
            assert pool.stats.shm_jobs >= 4
            djobs = [pool.submit_decompress(i, b, count=512)
                     for i, b in enumerate(blobs)]
            for d, j in zip(data, djobs):
                np.testing.assert_array_equal(pool.collect(j).array, d)

    def test_out_of_order_collection(self):
        comp = get_compressor("zlib")
        data = _payload(chunks=5)
        with CodecWorkerPool(comp, workers=2) as pool:
            jobs = [pool.submit_compress(i, d) for i, d in enumerate(data)]
            for j in reversed(jobs):
                res = pool.collect(j)
                assert res.blob == comp.compress(data[res.key])

    def test_unpicklable_codec_degrades_to_serial(self, caplog):
        comp = get_compressor("zlib")
        comp.oops = lambda: None  # lambdas don't pickle
        with pytest.raises(Exception):
            pickle.dumps(comp)
        with caplog.at_level("WARNING", logger="repro.parallel.pool"):
            pool = CodecWorkerPool(comp, workers=2)
        assert not pool.is_parallel
        assert pool.stats.fallbacks == 1
        assert any("degraded" in r.message for r in caplog.records)
        data = _payload(chunks=2)
        assert _compress_all(pool, data) == [comp.compress(d) for d in data]
        pool.close()


class TestCrashRecovery:
    def test_worker_crash_falls_back_inline(self, caplog):
        comp = CrashyCompressor(os.getpid())
        pool = CodecWorkerPool(comp, workers=2)
        if not pool.is_parallel:
            pytest.skip("process pool unavailable on this platform")
        data = _payload(chunks=4)
        with caplog.at_level("WARNING", logger="repro.parallel.pool"):
            jobs = [pool.submit_compress(i, d) for i, d in enumerate(data)]
            blobs = [pool.collect(j).blob for j in jobs]
        # No hang, no data loss: every blob is the correct serial blob.
        ref = ZlibCompressor()
        assert blobs == [ref.compress(d) for d in data]
        assert not pool.is_parallel
        assert pool.stats.fallbacks >= 1
        assert any("degraded" in r.message for r in caplog.records)
        pool.close()

    def test_crash_with_shm_payloads_recovers(self):
        comp = CrashyCompressor(os.getpid())
        pool = CodecWorkerPool(comp, workers=2, shm_threshold=1)
        if not pool.is_parallel:
            pytest.skip("process pool unavailable on this platform")
        data = _payload(chunks=3)
        jobs = [pool.submit_compress(i, d) for i, d in enumerate(data)]
        blobs = [pool.collect(j).blob for j in jobs]
        assert blobs == [ZlibCompressor().compress(d) for d in data]
        pool.close()


class TestTelemetry:
    def test_worker_spans_merge_into_parent_trace(self):
        tel = Telemetry()
        comp = get_compressor("zlib")
        data = _payload(chunks=4)
        with CodecWorkerPool(comp, workers=2, telemetry=tel) as pool:
            if not pool.is_parallel:
                pytest.skip("process pool unavailable on this platform")
            _decompress_all(pool, _compress_all(pool, data))
        spans = [s for s in tel.tracer.spans if s.name.startswith("worker.")]
        assert len(spans) == 8
        # Worker lanes are distinct from main-thread lanes (tid >= 100).
        assert all(s.tid >= 100 for s in spans)
        snap = tel.metrics.snapshot()
        assert snap["counters"]["parallel.jobs"] == 8
        util = snap["gauges"]["parallel.worker.utilization"]["value"]
        assert 0.0 <= util <= 1.0

    def test_chrome_trace_is_coherent(self, tmp_path):
        import json

        tel = Telemetry()
        with CodecWorkerPool(get_compressor("zlib"), workers=2,
                             telemetry=tel) as pool:
            _compress_all(pool, _payload(chunks=3))
        path = tmp_path / "t.json"
        tel.tracer.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        assert all(e["ts"] >= 0 for e in doc["traceEvents"]
                   if e.get("ph") == "X")


class TestAutoWorkers:
    def test_returns_sane_count(self):
        w = auto_workers(get_compressor("szlike", error_bound=1e-6), 1 << 12)
        cores = os.cpu_count() or 1
        assert 1 <= w <= max(1, min(cores, 8))

    def test_single_core_stays_serial(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert auto_workers(get_compressor("zlib"), 1 << 12) == 1

    def test_cheap_codec_stays_serial(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        # null codec: a memcpy — IPC would dominate, probe must say 1
        assert auto_workers(get_compressor("null"), 256) == 1
