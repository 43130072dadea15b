"""Parallel-vs-serial equivalence: the subsystem's determinism contract.

With a lossless codec the final statevector and every per-chunk blob must
be bit-identical between ``workers=1`` and ``workers>1``; with a lossy
codec the blobs must still match blob-for-blob, because the codec is a
pure function of chunk bytes and parameters — with a decompressed-chunk
cache in front too, because the cache hits and misses are the same for
every worker count. Covers permutation stages, the chunk cache, the disk
store, and a codec that raises on a lane thread mid-run.
"""

import itertools
import threading

import numpy as np
import pytest

from repro.circuits import get_workload
from repro.compression import compressor_options
from repro.compression.lossless import ZlibCompressor
from repro.core import MemQSim, MemQSimConfig
from repro.parallel import CodecWorkerPool, compare_stores, run_equivalence
from repro.telemetry import Telemetry

WORKERS = 2


class TestCodecEquivalence:
    @pytest.mark.parametrize("codec", ["zlib", "szlike"])
    @pytest.mark.parametrize("workload", ["qft", "grover"])
    def test_lossless_and_lossy_codecs(self, codec, workload):
        rep = run_equivalence(
            get_workload(workload, 8), workers=WORKERS,
            chunk_qubits=4, compressor=codec,
            compressor_options=compressor_options(codec, 1e-6),
        )
        assert rep.ok, rep.summary()
        assert rep.state_max_abs_diff == 0.0

    def test_mib_chunk_payload_path(self):
        """≥ 1 MiB payloads round-trip: every codec job of the run moves a
        1 MiB chunk, and the lane's blobs are the inline run's."""
        from repro.device.timeline import Stage

        circ = get_workload("qft", 17)
        cfg = MemQSimConfig(chunk_qubits=16, compressor="zlib")
        serial = MemQSim(cfg).run(circ)
        with CodecWorkerPool(cfg.make_compressor(), workers=WORKERS) as pool:
            overlapped = MemQSim(cfg, codec_pool=pool).run(circ)
        hops = [r for r in overlapped.timeline.rows
                if r[0] in (Stage.COMPRESS, Stage.DECOMPRESS)]
        assert hops and all(r[5] == 1 << 20 for r in hops)
        assert compare_stores(serial.store, overlapped.store) == (True, [])
        np.testing.assert_array_equal(serial.statevector(),
                                      overlapped.statevector())


class TestSchedulerFeatureEquivalence:
    def test_permutation_stages(self):
        # qaoa at small chunks exercises global X/SWAP relabeling stages.
        circ = get_workload("qaoa", 8)
        rep = run_equivalence(circ, workers=WORKERS, chunk_qubits=3,
                              compressor="zlib",
                              enable_permutation_stages=True)
        assert rep.ok, rep.summary()

    def test_chunk_cache_layer(self):
        from repro.device import DeviceSpec

        # a device this small streams several stages, so the cache hits
        rep = run_equivalence(get_workload("qft", 8), workers=WORKERS,
                              chunk_qubits=4, compressor="zlib",
                              cache_chunks=3,
                              device=DeviceSpec(memory_bytes=2048))
        assert rep.ok, rep.summary()
        assert rep.parallel_cache == rep.serial_cache
        assert rep.serial_cache[0] > 0, "the cache never hit"

    def test_disk_store(self, tmp_path):
        """Out-of-core (disk_path alone = tiered store at RAM budget 0):
        every blob the lane reads and writes crosses the log.
        One log file per run, so not through run_equivalence."""
        circ = get_workload("qft", 6)
        cfg = MemQSimConfig(chunk_qubits=3, compressor="zlib")
        serial = MemQSim(cfg, disk_path=str(tmp_path / "s.log")).run(circ)
        with CodecWorkerPool(cfg.make_compressor(), workers=WORKERS) as pool:
            overlapped = MemQSim(cfg, codec_pool=pool,
                                 disk_path=str(tmp_path / "o.log")).run(circ)
        assert overlapped.config_echo["store"] == "tiered"
        assert overlapped.tracker.peak("disk_store") > 0
        assert compare_stores(serial.store, overlapped.store) == (True, [])
        np.testing.assert_array_equal(serial.statevector(),
                                      overlapped.statevector())

    def test_tiered_store_lossy_codec(self):
        """Tiered store under a byte budget with a lossy codec, streamed
        device: spill placement must never change bytes, so serial and
        parallel stay blob-for-blob identical. disk_path stays None so
        each run gets its own temp log."""
        from repro.device import DeviceSpec

        rep = run_equivalence(
            get_workload("vqe", 9), workers=WORKERS,
            chunk_qubits=4, compressor="szlike",
            compressor_options={"error_bound": 1e-6},
            device=DeviceSpec(memory_bytes=int(0.002 * (1 << 20))),
            host_store_mb=0.001,
        )
        assert rep.ok, rep.summary()
        assert rep.state_bit_identical
        assert min(rep.promotions) > 0, rep.promotions

    @pytest.mark.parametrize("policy", ["mru", "belady"])
    @pytest.mark.parametrize("host_store_mb", [0.0, 0.001],
                             ids=["ram", "tiered"])
    def test_cache_over_a_lossy_codec(self, policy, host_store_mb):
        """A cache hit skips a requantization, so the state depends on
        *which* accesses hit — and those are the same for every worker
        count, so blobs and state are too. (Cache on vs cache off is a
        different trajectory by design; that is not compared here.)"""
        from repro.device import DeviceSpec

        rep = run_equivalence(
            get_workload("vqe", 9), workers=WORKERS,
            chunk_qubits=4, compressor="szlike",
            compressor_options={"error_bound": 1e-6},
            device=DeviceSpec(memory_bytes=int(0.002 * (1 << 20))),
            cache_chunks=6, cache_policy=policy,
            host_store_mb=host_store_mb,
        )
        assert rep.ok, rep.summary()
        assert rep.parallel_cache == rep.serial_cache
        assert rep.serial_cache[0] > 0, "the cache never hit"
        if host_store_mb:
            assert min(rep.promotions) > 0, rep.promotions

    def test_full_hierarchy_belady_cache(self):
        """The whole stack at once — Belady cache over a budget-bound
        tiered store, streamed device, the lane's schedule-exact prefetch
        on the pooled side — bit-identical to the pool-less run."""
        from repro.device import DeviceSpec

        rep = run_equivalence(
            get_workload("vqe", 9), workers=WORKERS,
            chunk_qubits=4, compressor="zlib",
            device=DeviceSpec(memory_bytes=int(0.002 * (1 << 20))),
            cache_chunks=6, cache_policy="belady",
            host_store_mb=0.001,
        )
        assert rep.ok, rep.summary()
        assert rep.state_bit_identical
        assert rep.parallel_cache == rep.serial_cache
        assert rep.serial_cache[0] > 0, "the cache never hit"
        assert min(rep.promotions) > 0, rep.promotions


class TestForcedExecutionModes:
    def test_parallel_engine_with_one_worker_matches_serial(self):
        """The codec lane over the inline (workers=1) pool."""
        rep = run_equivalence(get_workload("qft", 8), workers=1,
                              chunk_qubits=4, compressor="zlib")
        assert rep.ok, rep.summary()

    def test_workers1_auto_takes_serial_path(self):
        """workers=1 builds no pool: every codec call runs inline."""
        tel = Telemetry()
        cfg = MemQSimConfig(chunk_qubits=4, compressor="zlib", workers=1)
        res = MemQSim(cfg, telemetry=tel).run(get_workload("qft", 8))
        assert res.config_echo["workers"] == 1
        assert all(r[6] == 0 for r in res.timeline.rows)  # no lane row
        assert set(tel.traffic.by_worker()) == {0}
        assert res.store.lane is None

    def test_unknown_execution_rejected(self):
        """There is no engine knob left to set, valid or not."""
        with pytest.raises(TypeError, match="execution"):
            MemQSimConfig(execution="warp")
        with pytest.raises(TypeError, match="execution"):
            MemQSim(execution="serial")


class RaiseOnNthLaneCompress(ZlibCompressor):
    """Raises from its n-th compress call on a lane thread on."""

    name = "raise_on_nth"

    def __init__(self, nth: int = 6):
        super().__init__()
        self.nth = nth
        self.calls = itertools.count(1)

    def compress(self, data):
        if (threading.current_thread() is not threading.main_thread()
                and next(self.calls) >= self.nth):
            raise RuntimeError("codec failed on a lane")
        return super().compress(data)


class TestWorkerCrashMidRun:
    def test_run_survives_worker_crash(self, monkeypatch):
        """A codec that raises on a lane thread mid-run: the run raises that
        exception, no pending job is left behind, the store forgets the
        lane and reloads chunk-consistent (every chunk decodes), and the
        run's own lanes are joined."""
        from repro.compression import interface
        from repro.memory import ChunkLayout, CompressedChunkStore

        # a private registry copy, so the test codec leaks into no later test
        monkeypatch.setattr(interface, "_REGISTRY", dict(interface._REGISTRY))
        interface.register_compressor("raise_on_nth", RaiseOnNthLaneCompress)
        cfg = MemQSimConfig(chunk_qubits=4, compressor="raise_on_nth",
                            workers=2)
        tel = Telemetry()
        store = CompressedChunkStore(ChunkLayout(8, 4), cfg.make_compressor(),
                                     telemetry=tel)
        store.init_zero_state()
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="codec failed on a lane"):
            MemQSim(cfg).run(get_workload("qft", 8), initial_store=store)
        assert threading.active_count() == threads
        assert store.lane is None
        assert not store._pending and not store._prefetched
        # some of the run's writes landed (the ledger counts every one)
        assert tel.traffic.totals()["codec.raw_in"]["ops"] > 2
        sv = store.to_statevector()   # inline, every chunk decodes
        assert sv.shape == (256,) and np.isfinite(sv).all()
