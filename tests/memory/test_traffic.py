"""Tests for the byte-exact traffic ledger and the access recorder."""

import threading

import numpy as np
import pytest

from repro.compression import get_compressor
from repro.memory import (
    ChunkAccessRecorder,
    ChunkCache,
    ChunkLayout,
    CompressedChunkStore,
    MemoryTracker,
    TieredChunkStore,
    TrafficLedger,
)
from repro.telemetry import MetricsRegistry, Telemetry


def rand_state(n, seed=0):
    g = np.random.default_rng(seed)
    v = g.standard_normal(1 << n) + 1j * g.standard_normal(1 << n)
    return v / np.linalg.norm(v)


class TestLedgerUnit:
    def test_record_totals_and_ops(self):
        led = TrafficLedger()
        led.record("disk", "write", 100)
        led.record("disk", "write", 50, ops=2)
        assert led.total_bytes("disk", "write") == 150
        assert led.totals()["disk.write"] == {"bytes": 150, "ops": 3}

    def test_total_bytes_filters(self):
        led = TrafficLedger()
        led.record("arena", "h2d", 10)
        led.record("arena", "d2h", 20)
        led.record("disk", "read", 5)
        assert led.total_bytes("arena") == 30
        assert led.total_bytes(direction="d2h") == 20
        assert led.total_bytes() == 35

    def test_stage_attribution(self):
        led = TrafficLedger()
        led.record("codec", "raw_in", 7)  # before any pass: out-of-stage
        led.set_pass(0, 3)
        led.record("codec", "raw_in", 100)
        led.set_pass(1, 0)
        led.record("codec", "raw_in", 40)
        led.set_pass()
        assert led.stage_bytes(0, "codec", "raw_in") == 100
        assert led.stage_bytes(1, "codec", "raw_in") == 40
        assert led.stage_bytes(-1, "codec", "raw_in") == 7
        assert led.by_group(0) == {3: {"codec.raw_in": 100}}

    def test_attributed_override_restores_context(self):
        led = TrafficLedger()
        led.set_pass(5, 1)
        with led.attributed(2, 0):
            led.record("codec", "compressed_out", 11)
        led.record("codec", "compressed_out", 3)
        assert led.stage_bytes(2, "codec", "compressed_out") == 11
        assert led.stage_bytes(5, "codec", "compressed_out") == 3

    def test_worker_attribution_partitions_totals(self):
        led = TrafficLedger()
        led.record("codec", "compressed_out", 10)            # inline
        led.record("codec", "compressed_out", 20, worker=41)
        led.record("codec", "compressed_out", 30, worker=42)
        per_worker = led.by_worker()
        assert per_worker[0]["codec.compressed_out"] == 10
        assert per_worker[41]["codec.compressed_out"] == 20
        total = sum(r.get("codec.compressed_out", 0)
                    for r in per_worker.values())
        assert total == led.total_bytes("codec", "compressed_out") == 60

    def test_metrics_mirror(self):
        reg = MetricsRegistry()
        led = TrafficLedger(reg)
        led.record("cache", "hit", 64)
        led.record("cache", "hit", 64)
        assert reg.counter("traffic.cache.hit.bytes").value == 128

    def test_thread_safety(self):
        led = TrafficLedger()

        def pump():
            for _ in range(1000):
                led.record("disk", "write", 1)

        threads = [threading.Thread(target=pump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert led.total_bytes("disk", "write") == 4000
        assert led.totals()["disk.write"]["ops"] == 4000

    def test_to_dict_is_json_shaped(self):
        import json

        led = TrafficLedger()
        led.set_pass(0, 0)
        led.record("arena", "h2d", 10, worker=3)
        doc = json.loads(json.dumps(led.to_dict()))
        assert doc["totals"]["arena.h2d"]["bytes"] == 10
        assert doc["by_stage"]["0"]["arena.h2d"] == 10
        assert doc["by_worker"]["3"]["arena.h2d"] == 10


class TestAccessRecorder:
    def test_records_in_order(self):
        rec = ChunkAccessRecorder()
        rec.record(3, 0, "r")
        rec.record(3, 0, "w")
        rec.barrier(1)
        rec.record(0, 2, "r")
        assert rec.trace() == [(0, 3, "r"), (0, 3, "w"), (1, -1, "b"),
                               (2, 0, "r")]
        assert len(rec) == 4

    def test_jsonl_roundtrip(self, tmp_path):
        rec = ChunkAccessRecorder()
        rec.record(1, 0, "r")
        rec.barrier(1)
        path = tmp_path / "trace.jsonl"
        assert rec.write_jsonl(path) == 2
        assert ChunkAccessRecorder.read_jsonl(path) == rec.trace()


class TestTelemetryWiring:
    def test_enabled_telemetry_gets_live_ledger(self):
        tel = Telemetry()
        assert tel.access is None  # the access trace is opt-in
        tel.traffic.record("disk", "read", 9)
        assert tel.metrics.counter("traffic.disk.read.bytes").value == 9

    def test_disabled_telemetry_gets_null_twins(self):
        """...gets none, that is: no ledger and no recorder to touch."""
        tel = Telemetry(enabled=False)
        for sink in ("traffic", "access"):
            with pytest.raises(AttributeError, match="telemetry is disabled"):
                getattr(tel, sink)


class TestStoreWiring:
    def test_memory_store_codec_edges(self):
        tel = Telemetry()
        lay = ChunkLayout(6, 3)
        store = CompressedChunkStore(lay, get_compressor("zlib"),
                                     MemoryTracker(), telemetry=tel)
        store.init_from_statevector(rand_state(6))
        raw_in = tel.traffic.total_bytes("codec", "raw_in")
        comp_out = tel.traffic.total_bytes("codec", "compressed_out")
        assert raw_in == lay.num_chunks * lay.chunk_nbytes
        assert 0 < comp_out
        # exact: compressed_out must equal the live blob bytes
        assert comp_out == sum(store.blob_sizes())
        for k in range(lay.num_chunks):
            store.load(k)
        assert tel.traffic.total_bytes("codec", "raw_out") == \
            lay.num_chunks * lay.chunk_nbytes
        assert tel.traffic.total_bytes("codec", "compressed_in") == comp_out

    def test_disk_store_byte_accounting(self, tmp_path):
        tel = Telemetry()
        lay = ChunkLayout(6, 3)
        store = TieredChunkStore(lay, get_compressor("zlib"),
                                 tmp_path / "c.log", 0,
                                 tracker=MemoryTracker(), telemetry=tel)
        try:
            store.init_from_statevector(rand_state(6, seed=2))
            written = tel.traffic.total_bytes("disk", "write")
            # at budget 0 every blob the codec emitted went to the log,
            # once, and the log holds exactly what the ledger counted
            assert written == store.file_bytes \
                == tel.traffic.total_bytes("codec", "compressed_out") > 0
            for k in range(lay.num_chunks):
                store.load(k)
            read = tel.traffic.total_bytes("disk", "read")
            assert read == tel.traffic.total_bytes("codec", "compressed_in")
            assert tel.traffic.total_bytes("codec", "raw_out") == \
                lay.num_chunks * lay.chunk_nbytes
        finally:
            store.close()

    def test_disk_store_overwrite_appends(self, tmp_path):
        tel = Telemetry()
        lay = ChunkLayout(4, 2)
        store = TieredChunkStore(lay, get_compressor("zlib"),
                                 tmp_path / "c.log", 0,
                                 tracker=MemoryTracker(), telemetry=tel)
        try:
            store.init_from_statevector(rand_state(4, seed=3))
            w0 = tel.traffic.total_bytes("disk", "write")
            store.store(0, rand_state(2, seed=4))
            assert tel.traffic.total_bytes("disk", "write") \
                == w0 + len(store.get_blob(0))
            # the advisory prefetch has nowhere to promote to: no traffic
            before = tel.traffic.totals()
            store.will_need(range(lay.num_chunks))
            assert tel.traffic.totals() == before
            assert store.tier_stats.promotions == 0
        finally:
            store.close()

    def test_disk_run_writes_no_more_than_the_codec_emitted(self, tmp_path):
        """An out-of-core run appends each emitted blob once, except the
        interned zero blob, which never leaves RAM. (The deleted
        DiskChunkStore appended that one too: 1481 B on this circuit,
        equal to codec.compressed_out; this store writes 24 B fewer.)"""
        from repro.circuits import get_workload
        from repro.core import MemQSim

        tel = Telemetry()
        res = MemQSim(chunk_qubits=4, compressor="zlib",
                      disk_path=str(tmp_path / "run.log"),
                      telemetry=tel).run(get_workload("qft", 8))
        emitted = tel.traffic.totals()["codec.compressed_out"]
        written = tel.traffic.totals()["disk.write"]
        zero = len(res.store.zero_blob_bytes())
        assert written["bytes"] == emitted["bytes"] - zero
        assert written["ops"] == emitted["ops"] - 1
        assert res.store.compactions == 0  # below the 64 KiB floor
        res.store.close()

    def test_cache_hit_miss_bytes(self):
        tel = Telemetry()
        lay = ChunkLayout(6, 3)
        inner = CompressedChunkStore(lay, get_compressor("zlib"),
                                     MemoryTracker(), telemetry=tel)
        cache = ChunkCache(inner, capacity_chunks=2, policy="lru",
                           tracker=inner.tracker, telemetry=tel)
        cache.init_from_statevector(rand_state(6, seed=5))
        cache.load(0)  # miss
        cache.load(0)  # hit
        assert tel.traffic.total_bytes("cache", "miss") == lay.chunk_nbytes
        assert tel.traffic.total_bytes("cache", "hit") == lay.chunk_nbytes


class TestMemGaugeEvents:
    def test_gauge_changes_stay_off_the_bus(self):
        """A balance change moves the ``mem.<category>.bytes`` gauge (its
        max is the peak) and publishes nothing: the bus carries no copy of
        a gauge."""
        tel = Telemetry()
        tracker = MemoryTracker(telemetry=tel)
        tracker.alloc("chunk_store", 1000)
        tracker.free("chunk_store", 1000)
        gauge = tel.metrics.snapshot()["gauges"]["mem.chunk_store.bytes"]
        assert gauge == {"value": 0, "max": 1000}
        assert tel.bus.published == 0

    def test_cache_flush_event(self):
        tel = Telemetry()
        lay = ChunkLayout(6, 3)
        inner = CompressedChunkStore(lay, get_compressor("zlib"),
                                     MemoryTracker(), telemetry=tel)
        cache = ChunkCache(inner, capacity_chunks=2, policy="lru",
                           tracker=inner.tracker, telemetry=tel)
        cache.init_from_statevector(rand_state(6, seed=6))
        cache.load(0)
        cache.flush()
        kinds = [ev.kind for ev in tel.bus.tail(100)]
        assert "cache.flush" in kinds
