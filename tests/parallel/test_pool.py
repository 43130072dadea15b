"""CodecWorkerPool: codec lane threads over one codec.

Several ids here predate the thread lane and name what it replaced
(inline fallback, process workers, shared memory, crash degradation);
each now pins what the lane does in that place instead.
"""

import multiprocessing
import os
import pickle
import threading

import numpy as np
import pytest

from repro.compression import get_compressor
from repro.compression.lossless import NullCompressor, ZlibCompressor
from repro.memory import ChunkLayout, CompressedChunkStore, MemoryTracker
from repro.parallel import CodecWorkerPool, auto_workers
from repro.telemetry import Telemetry

MIB = 1 << 20


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
    return [pool.collect(j).blob for j in jobs]


def _decompress_all(pool, blobs):
    jobs = [pool.submit_decompress(i, b) for i, b in enumerate(blobs)]
    return [pool.collect(j).array for j in jobs]


class RaisesOnALane(ZlibCompressor):
    """Raises on compress when called on a lane thread; inline it works."""

    name = "raises_on_a_lane"

    def compress(self, data):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("codec failed on a lane")
        return super().compress(data)


class TestSerialPool:
    def test_workers1_runs_inline(self):
        """``workers=1`` is one lane thread (no lane at all is the store's
        own inline path): same blobs, same arrays, every job on lane 1."""
        comp = get_compressor("zlib")
        with CodecWorkerPool(comp, workers=1) as pool:
            data = _payload()
            jobs = [pool.submit_compress(i, d) for i, d in enumerate(data)]
            results = [pool.collect(j) for j in jobs]
            assert [r.blob for r in results] == [comp.compress(d)
                                                 for d in data]
            assert {r.worker for r in results} == {1}
            for a, d in zip(_decompress_all(pool, [r.blob for r in results]),
                            data):
                np.testing.assert_array_equal(a, d)

    def test_submit_collect_inline(self):
        """A job is a future; its result carries its key, the lane that ran
        it and the seconds that lane measured."""
        with CodecWorkerPool(get_compressor("zlib"), workers=1) as pool:
            data = _payload(chunks=3)
            jobs = [pool.submit_compress(i, d) for i, d in enumerate(data)]
            for i, j in enumerate(jobs):
                res = pool.collect(j)
                assert j.done()
                assert res.key == i
                assert res.worker == 1
                assert res.seconds > 0.0

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            CodecWorkerPool(get_compressor("zlib"), workers=0)


class TestProcessPool:
    def test_blobs_identical_to_serial(self):
        comp = get_compressor("szlike", error_bound=1e-6)
        data = _payload(chunks=6)
        with CodecWorkerPool(comp, workers=2) as pool:
            blobs = _compress_all(pool, data)
            assert blobs == [comp.compress(d) for d in data]
            arrs = _decompress_all(pool, blobs)
        for a, d in zip(arrs, data):
            np.testing.assert_array_equal(a, comp.decompress(comp.compress(d)))

    def test_shared_memory_payloads(self):
        """≥ 1 MiB payloads round-trip through the lanes, and the input
        buffer is the caller's again as soon as the job is submitted."""
        comp = get_compressor("zlib")
        data = _payload(n=MIB // 16, chunks=3)
        assert all(d.nbytes >= MIB for d in data)
        with CodecWorkerPool(comp, workers=2) as pool:
            scratch = data[0].copy()
            jobs = [pool.submit_compress(i, d) for i, d in enumerate(data)]
            reused = pool.submit_compress(9, scratch)
            scratch[:] = 0  # the job copied it
            blobs = [pool.collect(j).blob for j in jobs]
            assert pool.collect(reused).blob == blobs[0]
            for d, arr in zip(data, _decompress_all(pool, blobs)):
                np.testing.assert_array_equal(arr, d)

    def test_out_of_order_collection(self):
        comp = get_compressor("zlib")
        data = _payload(chunks=5)
        with CodecWorkerPool(comp, workers=2) as pool:
            jobs = [pool.submit_compress(i, d) for i, d in enumerate(data)]
            for j in reversed(jobs):
                res = pool.collect(j)
                assert res.blob == comp.compress(data[res.key])

    def test_unpicklable_codec_degrades_to_serial(self):
        """An unpicklable codec runs on the lane: nothing is pickled."""
        comp = get_compressor("zlib")
        comp.oops = lambda: None  # lambdas don't pickle
        with pytest.raises(Exception):
            pickle.dumps(comp)
        data = _payload(chunks=2)
        with CodecWorkerPool(comp, workers=2) as pool:
            jobs = [pool.submit_compress(i, d) for i, d in enumerate(data)]
            results = [pool.collect(j) for j in jobs]
        assert [r.blob for r in results] == [comp.compress(d) for d in data]
        assert all(r.worker >= 1 for r in results)


class TestCrashRecovery:
    def test_worker_crash_falls_back_inline(self):
        """A codec that raises on a lane thread: ``collect`` re-raises that
        exception, with its own type; the other jobs and the pool are
        unaffected."""
        comp = RaisesOnALane()
        data = _payload(chunks=3)
        blob = comp.compress(data[1])  # inline it works
        with CodecWorkerPool(comp, workers=2) as pool:
            failing = pool.submit_compress(0, data[0])
            fine = pool.submit_decompress(1, blob)
            with pytest.raises(RuntimeError, match="codec failed on a lane"):
                pool.collect(failing)
            np.testing.assert_array_equal(pool.collect(fine).array, data[1])
            again = pool.submit_decompress(2, blob)
            np.testing.assert_array_equal(pool.collect(again).array, data[1])

    def test_crash_with_shm_payloads_recovers(self):
        """A store whose lane raises on ≥ 1 MiB chunk writes surfaces that
        exception, every other job still settles, and the store reloads
        chunk-consistent — each chunk decodes, a failed write left its
        chunk's previous value."""
        layout = ChunkLayout(18, 16)  # 4 chunks of 1 MiB
        store = CompressedChunkStore(layout, RaisesOnALane(), MemoryTracker())
        store.init_zero_state()
        before = store.to_statevector()
        new = np.full(layout.chunk_size, 0.5 + 0j)
        with CodecWorkerPool(store.compressor, workers=2) as pool:
            store.attach_lane(pool)
            # the failure surfaces where a write settles — at a later
            # store() or at the latest when the lane detaches, which a run
            # does on every exit path
            with pytest.raises(RuntimeError, match="codec failed on a lane"):
                try:
                    store.will_need([2, 3])  # decompress jobs: those work
                    for chunk in (1, 2):
                        store.store(chunk, new)  # compress jobs: those raise
                finally:
                    store.detach_lane()
        assert store.lane is None
        assert not store._pending and not store._prefetched
        np.testing.assert_array_equal(store.to_statevector(), before)


class TestTelemetry:
    def test_worker_spans_merge_into_parent_trace(self):
        """A lane books nothing itself: each job comes back with the start
        and seconds its lane measured and the lane's index, the store books
        it as one timeline row, and the trace draws that row on the lane's
        own row (tid 100 + lane), on the tracer's clock, inside the window
        the jobs ran in — no ``worker.*`` copy, no bus event."""
        from repro.device import Timeline

        tel = Telemetry()
        hops = Timeline()
        tel.tracer.attach(hops)
        lay = ChunkLayout(8, 5)
        store = CompressedChunkStore(lay, get_compressor("zlib"),
                                     MemoryTracker())
        store.report_codec_to(hops)
        t_before = tel.tracer.now
        with CodecWorkerPool(store.compressor, workers=2,
                             telemetry=tel) as pool:
            store.attach_lane(pool)
            for k, chunk in enumerate(_payload(n=32, chunks=8)):
                store.store(k, chunk)
            store.will_need(range(lay.num_chunks))
            for k in range(lay.num_chunks):
                store.load(k)
            store.detach_lane()
        t_after = tel.tracer.now
        assert len(hops.rows) == 2 * lay.num_chunks
        spans = [s for s in tel.tracer.spans
                 if s.name in ("compress", "decompress")]
        assert len(spans) == 2 * lay.num_chunks
        for sp in spans:
            assert sp.args["lane"] in (1, 2)
            assert sp.tid == 100 + sp.args["lane"]
            assert t_before <= sp.start <= sp.end <= t_after
        assert not [s for s in tel.tracer.spans
                    if s.name.startswith("worker.")]
        assert tel.bus.published == 0
        util = tel.metrics.snapshot()["gauges"][
            "parallel.worker.utilization"]["value"]
        assert 0.0 < util <= 1.0

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


class TestLanesAreThreads:
    def test_a_laned_run_spawns_no_process_and_leaves_no_thread(self):
        from repro.circuits import get_workload
        from repro.core import MemQSim, MemQSimConfig

        threads = threading.active_count()
        cfg = MemQSimConfig(chunk_qubits=4, compressor="zlib", workers=2)
        with CodecWorkerPool(cfg.make_compressor(), workers=2) as pool:
            res = MemQSim(cfg, codec_pool=pool).run(get_workload("qft", 8))
            assert multiprocessing.active_children() == []
            assert threading.active_count() > threads  # the lanes ran
        assert threading.active_count() == threads
        # a run that builds its own pool closes it on the way out
        MemQSim(cfg).run(get_workload("qft", 8))
        assert threading.active_count() == threads
        assert multiprocessing.active_children() == []
        assert res.norm() == pytest.approx(1.0, abs=1e-9)


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
        # null codec: a memcpy — the lane hand-off would dominate, so 1
        assert auto_workers(get_compressor("null"), 256) == 1

    @pytest.mark.parametrize("name,stages", [
        ("zlib", {"deflate"}), ("szlike", {"zlib", "fixed"})])
    def test_it_times_the_codecs_compressing_path(self, monkeypatch, name,
                                                  stages):
        # neither a raw frame (a memcpy) nor a uniform one: what a chunk
        # the codec has to work on costs
        from repro.compression.lossless import blob_frame
        from repro.compression.szlike import blob_entropy

        codec = get_compressor(name)
        compress = codec.compress
        blobs = []
        monkeypatch.setattr(codec, "compress",
                            lambda data: blobs.append(compress(data))
                            or blobs[-1])
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        auto_workers(codec, 1 << 12)
        assert blobs and {blob_entropy(b) or blob_frame(b)
                          for b in blobs} <= stages
        if name == "zlib":
            assert all(b[:4] == b"LSL1" for b in blobs)

    def test_a_cold_first_call_is_not_timed(self, monkeypatch):
        # a codec's first call pays one-off set-up (imports, tables,
        # allocator growth); deciding on it gave a lane to a codec whose
        # every later call is fast
        import time

        class ColdStart(NullCompressor):
            calls = 0

            def compress(self, data):
                self.calls += 1
                if self.calls == 1:
                    time.sleep(2e-3)
                return super().compress(data)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert auto_workers(ColdStart(), 1 << 10) == 1
