"""Tests for the byte-exact traffic ledger and the access recorder.

The ledger books nothing: it is a fold over the rows of the timelines the
tracer has attached, so every unit test here books rows and reads them."""

import threading

import numpy as np
import pytest

from repro.compression import get_compressor
from repro.device import Stage, Timeline
from repro.memory import (
    ChunkCache,
    ChunkLayout,
    CompressedChunkStore,
    MemoryTracker,
    TieredChunkStore,
)
from repro.telemetry import Telemetry
from repro.telemetry.live import render_prometheus


def rand_state(n, seed=0):
    g = np.random.default_rng(seed)
    v = g.standard_normal(1 << n) + 1j * g.standard_normal(1 << n)
    return v / np.linalg.norm(v)


def ledger():
    """An enabled telemetry's ledger and an attached timeline to book on."""
    tel = Telemetry()
    hops = Timeline()
    tel.tracer.attach(hops)
    return tel.traffic, hops


def booked(store, tel):
    """Book ``store``'s hops on a timeline ``tel``'s ledger reads."""
    hops = Timeline()
    tel.tracer.attach(hops)
    store.report_hops_to(hops)
    return hops


class TestLedgerUnit:
    def test_record_totals_and_ops(self):
        led, hops = ledger()
        hops.record(Stage.DISK_WRITE, 0.0, 0.1, nbytes=100)
        hops.record(Stage.DISK_WRITE, 0.1, 0.1, nbytes=50)
        hops.record(Stage.KERNEL, 0.2, 0.1, nbytes=4096)  # moves nothing
        assert led.total_bytes("disk", "write") == 150
        assert led.totals() == {"disk.write": {"bytes": 150, "ops": 2}}

    def test_total_bytes_filters(self):
        led, hops = ledger()
        hops.record(Stage.H2D, 0.0, 0.1, nbytes=10)
        hops.record(Stage.D2H, 0.0, 0.1, nbytes=20)
        hops.record(Stage.DISK_READ, 0.0, 0.1, nbytes=5)
        assert led.total_bytes("arena") == 30
        assert led.total_bytes(direction="d2h") == 20
        assert led.total_bytes() == 35

    def test_codec_rows_move_raw_and_blob_bytes(self):
        """A codec row is two edges: its raw bytes one way, its blob's the
        other."""
        led, hops = ledger()
        hops.record(Stage.COMPRESS, 0.0, 0.1, 0, 1, 256, 0, 0, 40)
        hops.record(Stage.DECOMPRESS, 0.1, 0.1, 0, 1, 256, 0, 0, 40)
        assert led.totals() == {
            "codec.compressed_in": {"bytes": 40, "ops": 1},
            "codec.compressed_out": {"bytes": 40, "ops": 1},
            "codec.raw_in": {"bytes": 256, "ops": 1},
            "codec.raw_out": {"bytes": 256, "ops": 1}}

    def test_stage_attribution(self):
        led, hops = ledger()
        hops.record(Stage.COMPRESS, 0.0, 0.1, nbytes=7)  # out-of-stage
        hops.stage_index = 0
        hops.record(Stage.COMPRESS, 0.0, 0.1, 3, nbytes=100)
        hops.stage_index = 1
        hops.record(Stage.COMPRESS, 0.0, 0.1, 0, nbytes=40)
        hops.stage_index = -1
        assert {si: row["codec.raw_in"] for si, row in led.by_stage().items()} \
            == {-1: 7, 0: 100, 1: 40}
        assert led.by_group(0) == {3: {"codec.raw_in": 100,
                                       "codec.compressed_out": 0}}

    def test_a_settled_write_books_the_pass_that_issued_it(self):
        """A write a codec lane settles during a later pass is a row of
        the pass that issued it, and so is the spill installing it causes."""
        from repro.parallel import CodecWorkerPool

        tel = Telemetry()
        lay = ChunkLayout(6, 3)
        store = TieredChunkStore(lay, get_compressor("zlib"), None, 0,
                                 tracker=MemoryTracker())
        hops = booked(store, tel)
        store.init_zero_state()
        with CodecWorkerPool(store.compressor, workers=1) as pool:
            store.attach_lane(pool)
            hops.stage_index = 2
            store.will_need([], 5)
            store.store(1, rand_state(3, seed=7))
            hops.stage_index = 4
            store.will_need([], 0)
            store.detach_lane()       # the write lands now
        store.close()
        [write] = [r for r in hops.rows if r[0] == Stage.COMPRESS and r[4] == 1]
        assert (write[3], write[8]) == (5, 2)
        assert led_cell(tel, 2, 5, "disk.write") == write[9] > 0
        assert hops.stage_index == 4  # the context it interrupted is back

    def test_worker_attribution_partitions_totals(self):
        led, hops = ledger()
        hops.record(Stage.COMPRESS, 0, 0, blob_bytes=10)            # inline
        hops.record(Stage.COMPRESS, 0, 0, lane=41, blob_bytes=20)
        hops.record(Stage.COMPRESS, 0, 0, lane=42, blob_bytes=30)
        per_worker = led.by_worker()
        assert per_worker[0]["codec.compressed_out"] == 10
        assert per_worker[41]["codec.compressed_out"] == 20
        total = sum(r.get("codec.compressed_out", 0)
                    for r in per_worker.values())
        assert total == led.total_bytes("codec", "compressed_out") == 60

    def test_prometheus_renders_the_ledger_edges(self):
        """The ledger keeps no counters; ``/metrics`` renders its edges as
        the ``repro_traffic_*`` counters a registry mirror once held."""
        tel = Telemetry()
        hops = Timeline()
        tel.tracer.attach(hops)
        hops.record(Stage.CACHE_HIT, 0, 0, nbytes=64)
        hops.record(Stage.CACHE_HIT, 0, 0, nbytes=64)
        assert "traffic.cache.hit.bytes" not in \
            tel.metrics.snapshot()["counters"]
        text = render_prometheus(tel)
        assert "# TYPE repro_traffic_cache_hit_bytes_total counter" in text
        assert "\nrepro_traffic_cache_hit_bytes_total 128\n" in text

    def test_thread_safety(self):
        """Rows booked on one thread while more threads than cores read
        the ledger (switching as often as the interpreter allows) are each
        folded once."""
        import sys

        led, hops = ledger()
        stop = threading.Event()

        def poll():
            while not stop.is_set():
                led.totals()
                led.by_stage()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=poll) for _ in range(4)]
        try:
            for t in readers:
                t.start()
            for _ in range(4000):
                hops.record(Stage.DISK_WRITE, 0, 0, nbytes=1)
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers)
        assert led.total_bytes("disk", "write") == 4000
        assert led.totals()["disk.write"]["ops"] == 4000
        assert led.by_stage() == {-1: {"disk.write": 4000}}

    def test_to_dict_is_json_shaped(self):
        import json

        led, hops = ledger()
        hops.stage_index = 0
        hops.record(Stage.H2D, 0, 0, 0, nbytes=10, lane=3)
        doc = json.loads(json.dumps(led.to_dict()))
        assert doc["totals"]["arena.h2d"]["bytes"] == 10
        assert doc["by_stage"]["0"]["arena.h2d"] == 10
        assert doc["by_worker"]["3"]["arena.h2d"] == 10


def led_cell(tel, stage, group, edge):
    return tel.traffic.by_group(stage).get(group, {}).get(edge, 0)


class TestTelemetryWiring:
    def test_enabled_telemetry_gets_live_ledger(self):
        tel = Telemetry()
        hops = Timeline()
        tel.tracer.attach(hops)
        hops.record(Stage.DISK_READ, 0, 0, nbytes=9)
        assert tel.traffic.totals() == {"disk.read": {"bytes": 9, "ops": 1}}

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
                                     MemoryTracker())
        booked(store, tel)
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
                                 tracker=MemoryTracker())
        booked(store, tel)
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
                                 tracker=MemoryTracker())
        booked(store, tel)
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
                                     MemoryTracker())
        cache = ChunkCache(inner, capacity_chunks=2, policy="lru",
                           tracker=inner.tracker)
        booked(inner, tel)  # the cache books its copies through its store
        cache.init_from_statevector(rand_state(6, seed=5))
        cache.load(0)  # miss
        cache.load(0)  # hit
        assert tel.traffic.total_bytes("cache", "miss") == lay.chunk_nbytes
        assert tel.traffic.total_bytes("cache", "hit") == lay.chunk_nbytes


class TestMemGaugeEvents:
    def test_gauge_changes_stay_off_the_bus(self):
        """A balance change moves the ``mem.<category>.bytes`` gauge of a
        telemetry that watches the tracker (its max is the peak) and
        publishes nothing: the bus carries no copy of a gauge."""
        tel = Telemetry()
        tracker = MemoryTracker()
        tel.watch(tracker=tracker)
        tracker.alloc("chunk_store", 1000)
        tracker.free("chunk_store", 1000)
        gauge = tel.metrics.snapshot()["gauges"]["mem.chunk_store.bytes"]
        assert gauge == {"value": 0, "max": 1000}
        assert tel.bus.published == 0

    def test_cache_flush_event(self):
        tel = Telemetry()
        lay = ChunkLayout(6, 3)
        inner = CompressedChunkStore(lay, get_compressor("zlib"),
                                     MemoryTracker())
        cache = ChunkCache(inner, capacity_chunks=2, policy="lru",
                           tracker=inner.tracker)
        cache.observer = tel.observer()  # what a run hands its cache
        cache.init_from_statevector(rand_state(6, seed=6))
        cache.load(0)
        cache.flush()
        kinds = [ev.kind for ev in tel.bus.tail(100)]
        assert "cache.flush" in kinds
