"""Unit tests for the compressed chunk store."""

import numpy as np
import pytest

from repro.compression import get_compressor
from repro.memory import ChunkLayout, CompressedChunkStore, MemoryTracker


def make_store(n=6, c=3, codec="zlib"):
    tracker = MemoryTracker()
    lay = ChunkLayout(n, c)
    return CompressedChunkStore(lay, get_compressor(codec), tracker), tracker


class TestInit:
    def test_zero_state(self):
        store, _ = make_store()
        store.init_zero_state()
        sv = store.to_statevector()
        assert sv[0] == 1.0
        assert np.count_nonzero(sv) == 1

    def test_from_statevector_roundtrip(self, random_state_fn):
        store, _ = make_store()
        v = random_state_fn(6, seed=1)
        store.init_from_statevector(v)
        assert np.array_equal(store.to_statevector(), v)

    def test_from_statevector_interns_bytewise_zero_chunks(self):
        store, tracker = make_store()
        cs = store.layout.chunk_size
        v = np.zeros(store.layout.num_amplitudes, dtype=np.complex128)
        v[2 * cs + 1] = 1.0
        v[5 * cs] = -0.0  # equals 0 but is not all-zero bytes: kept
        store.init_from_statevector(v)
        live = [k for k in range(store.layout.num_chunks)
                if not store.is_zero_chunk(k)]
        assert live == [2, 5]
        assert np.signbit(store.load(5)[0].real)
        assert np.array_equal(store.to_statevector(), v)
        # interned chunks share one blob, accounted once
        assert tracker.current("chunk_store") == store.compressed_nbytes()

    def test_from_statevector_size_checked(self):
        store, _ = make_store()
        with pytest.raises(ValueError):
            store.init_from_statevector(np.zeros(4, dtype=complex))

    def test_uninitialized_load_raises(self):
        store, _ = make_store()
        with pytest.raises(KeyError):
            store.load(0)


class TestLoadStore:
    def test_load_into_buffer(self, random_state_fn):
        store, _ = make_store()
        v = random_state_fn(6, seed=2)
        store.init_from_statevector(v)
        buf = np.empty(8, dtype=np.complex128)
        out = store.load(3, out=buf)
        assert out is buf
        assert np.array_equal(buf, v[24:32])

    def test_store_replaces_chunk(self, random_state_fn):
        store, _ = make_store()
        store.init_zero_state()
        new = random_state_fn(3, seed=3)
        store.store(2, new)
        assert np.array_equal(store.load(2), new)
        # others untouched
        assert np.all(store.load(1) == 0)

    def test_store_size_checked(self):
        store, _ = make_store()
        store.init_zero_state()
        with pytest.raises(ValueError):
            store.store(0, np.zeros(4, dtype=complex))

    def test_stats_accumulate(self):
        """Every codec call is one row of the timeline the store books on:
        stage, measured start and seconds, the chunk and its raw bytes."""
        from repro.device import Stage, Timeline

        store, _ = make_store()
        store.init_zero_state()
        store.store(1, np.full(store.layout.chunk_size, 0.5, dtype=complex))
        hops = Timeline()
        store.report_hops_to(hops)
        store.load(0)
        store.load(1)
        assert hops.count(Stage.DECOMPRESS) == 2
        assert hops.serial_seconds(Stage.DECOMPRESS) > 0
        assert [(r[4], r[5]) for r in hops.rows] == [
            (0, store.layout.chunk_nbytes), (1, store.layout.chunk_nbytes)]
        store.load(2)
        assert hops.count() == 2  # the zero blob: filled, not decoded
        store.report_hops_to()
        store.load(1)
        assert hops.count() == 2  # detached: books nothing


class TestZeroFill:
    """A chunk holding the interned zero blob is filled, never decoded:
    no codec call, no timeline row, no codec traffic."""

    @staticmethod
    def no_decode(store, monkeypatch):
        def refuse(*_a, **_k):
            raise AssertionError("the zero blob was decoded")
        monkeypatch.setattr(store.compressor, "decompress", refuse)

    @pytest.mark.parametrize("precision", [np.complex128, np.complex64])
    def test_fills_out_and_returns_it(self, monkeypatch, precision):
        lay = ChunkLayout(6, 3, itemsize=np.dtype(precision).itemsize)
        store = CompressedChunkStore(lay, get_compressor("zlib"))
        store.init_zero_state()
        self.no_decode(store, monkeypatch)
        out = np.full(lay.chunk_size, 7 + 7j, dtype=precision)
        assert store.load(3, out=out) is out
        assert not out.view(np.uint8).any()
        fresh = store.load(3)
        assert fresh.dtype == precision and fresh.shape == (lay.chunk_size,)
        assert not fresh.view(np.uint8).any()

    def test_books_nothing(self):
        from repro.device import Timeline
        from repro.telemetry import Telemetry

        tel = Telemetry()
        lay = ChunkLayout(6, 3)
        store = CompressedChunkStore(lay, get_compressor("zlib"))
        tel.watch(store=store)
        store.init_zero_state()
        hops = Timeline()
        tel.tracer.attach(hops)  # the ledger reads its rows
        store.report_hops_to(hops)
        store.load(5)
        assert hops.count() == 0
        assert "codec.raw_out" not in tel.traffic.totals()
        store.load(0)
        assert hops.count() == 1
        assert tel.traffic.totals()["codec.raw_out"]["ops"] == 1

    def test_a_zeroed_chunk_is_filled_and_a_written_one_decoded(
            self, monkeypatch):
        store, _ = make_store()
        store.init_zero_state()
        store.store(2, np.ones(store.layout.chunk_size, dtype=complex))
        store.zero_chunk(2)
        self.no_decode(store, monkeypatch)
        assert not store.load(2).any()
        monkeypatch.undo()
        # a written all-zero buffer is not interned: it is live, decoded
        store.store(2, np.zeros(store.layout.chunk_size, dtype=complex))
        self.no_decode(store, monkeypatch)
        with pytest.raises(AssertionError, match="decoded"):
            store.load(2)


class TestAccounting:
    def test_tracker_matches_unique_bytes(self):
        store, tracker = make_store()
        store.init_zero_state()
        assert tracker.current("chunk_store") == store.compressed_nbytes()

    def test_tracker_after_stores(self, random_state_fn):
        store, tracker = make_store()
        store.init_zero_state()
        v = random_state_fn(3, seed=4)
        for k in range(store.layout.num_chunks):
            store.store(k, v)
        assert tracker.current("chunk_store") == store.compressed_nbytes()

    def test_zero_blob_interned(self):
        store, _ = make_store()
        store.init_zero_state()
        sizes = store.blob_sizes()
        # all-zero chunks share one blob: unique bytes well below sum
        assert store.compressed_nbytes() < sum(sizes)

    def test_compression_ratio_positive(self):
        store, _ = make_store()
        store.init_zero_state()
        assert store.compression_ratio() > 1.0

    def test_dense_nbytes(self):
        store, _ = make_store(6, 3)
        assert store.dense_nbytes() == 64 * 16


class TestPermute:
    def test_permute_swaps_chunks(self, random_state_fn):
        store, _ = make_store()
        v = random_state_fn(6, seed=5)
        store.init_from_statevector(v)
        nc = store.layout.num_chunks
        perm = list(range(nc))
        perm[0], perm[1] = perm[1], perm[0]
        store.permute(perm)
        got = store.to_statevector()
        want = v.copy()
        want[0:8], want[8:16] = v[8:16].copy(), v[0:8].copy()
        assert np.array_equal(got, want)

    def test_permute_validates_length(self):
        store, _ = make_store()
        store.init_zero_state()
        with pytest.raises(ValueError):
            store.permute([0, 1])

    def test_permute_validates_permutation(self):
        store, _ = make_store()
        store.init_zero_state()
        with pytest.raises(ValueError):
            store.permute([0] * store.layout.num_chunks)

    def test_x_gate_as_permutation_matches_dense(self, random_state_fn, dense):
        from repro.circuits import Circuit

        store, _ = make_store(6, 3)
        v = random_state_fn(6, seed=6)
        store.init_from_statevector(v)
        # X on qubit 4 (global, chunk bit 1)
        perm = [k ^ 2 for k in range(8)]
        store.permute(perm)
        ref = dense.run(Circuit(6).x(4), initial_state=None)
        from repro.statevector import StateVector, apply_gate
        from repro.circuits import gate_matrix

        want = v.copy()
        apply_gate(want, gate_matrix("x"), (4,))
        assert np.array_equal(store.to_statevector(), want)


class TestLossyStore:
    def test_szlike_store_bound(self, random_state_fn):
        tracker = MemoryTracker()
        lay = ChunkLayout(8, 4)
        store = CompressedChunkStore(
            lay, get_compressor("szlike", error_bound=1e-5), tracker
        )
        v = random_state_fn(8, seed=7)
        store.init_from_statevector(v)
        back = store.to_statevector()
        err = np.max(np.maximum(np.abs((v - back).real), np.abs((v - back).imag)))
        assert err <= 1e-5 * (1 + 1e-9)


def drive(workers, codec="szlike", passes=3):
    """Store and load the same data through a store with no lane
    (``workers=1``) or with a ``workers``-thread lane; three "passes"
    under ledger contexts (0, g), each reading what the one before wrote.
    Returns (store, telemetry, the timeline its codec calls were booked
    on, final statevector)."""
    from repro.device import Timeline
    from repro.parallel import CodecWorkerPool
    from repro.telemetry import Telemetry

    tel = Telemetry()
    lay = ChunkLayout(8, 5)
    opts = {"error_bound": 1e-5} if codec == "szlike" else {}
    comp = get_compressor(codec, **opts)
    store = CompressedChunkStore(lay, comp, MemoryTracker())
    tel.watch(store=store)
    hops = Timeline()
    tel.tracer.attach(hops)  # the ledger reads its rows
    store.report_hops_to(hops)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    store.init_from_statevector(v / np.linalg.norm(v))
    pool = CodecWorkerPool(comp, workers=workers) if workers > 1 else None
    if pool is not None:
        store.attach_lane(pool)
    try:
        for g in range(passes):
            hops.stage_index = 0
            store.will_need(range(lay.num_chunks), g)
            bufs = [store.load(k) for k in range(lay.num_chunks)]
            for k, buf in enumerate(bufs):
                store.store(k, buf * np.exp(0.3j * (k + 1)))
        hops.stage_index = -1
    finally:
        store.detach_lane()
        if pool is not None:
            pool.close()
    assert store.lane is None
    return store, tel, hops, store.to_statevector()


class TestCodecLane:
    """A store with a codec lane is the same store: same data, same
    counts, same bytes — only *where* the codec ran differs."""

    def test_lane_roundtrip_and_stats_match_inline(self):
        from repro.device import Stage

        inline, tel_i, hops_i, sv_inline = drive(1)
        laned, tel_l, hops_l, sv_laned = drive(2)
        assert np.array_equal(sv_inline, sv_laned)  # lossy codec, same bits
        for k in range(inline.layout.num_chunks):
            assert inline.get_blob(k) == laned.get_blob(k)
        assert tel_i.traffic.totals() == tel_l.traffic.totals()
        for stage in (Stage.DECOMPRESS, Stage.COMPRESS):
            assert hops_l.count(stage) == hops_i.count(stage) > 0
            assert hops_l.serial_seconds(stage) > 0
        # same rows but for when and where: start, seconds and lane
        def what(hops):
            return sorted((r[0].value, r[3], r[4], r[5]) for r in hops.rows)
        assert what(hops_l) == what(hops_i)
        assert {r[6] for r in hops_i.rows} == {0}
        assert {r[6] for r in hops_l.rows} & {1, 2}  # lanes ran some

    def test_lane_ledger_balances_per_pass_and_per_worker(self):
        _, tel_i, _, _ = drive(1)
        _, tel_l, _, _ = drive(2)
        led_i, led_l = tel_i.traffic, tel_l.traffic
        edges = ("codec.raw_in", "codec.compressed_out",
                 "codec.compressed_in", "codec.raw_out")
        # a write that settles during a later pass is still booked to the
        # pass that issued it: per-(stage, group) cells are equal
        assert led_l.by_stage() == led_i.by_stage()
        assert led_l.by_group(0) == led_i.by_group(0)
        assert set(led_l.by_group(0)) == {0, 1, 2}
        per_worker = led_l.by_worker()
        assert [w for w in per_worker if w != 0], "no worker attribution"
        for edge in edges:
            e, d = edge.split(".")
            assert sum(row.get(edge, 0) for row in per_worker.values()) \
                == led_l.total_bytes(e, d) == led_i.total_bytes(e, d)

    def test_read_waits_for_the_pending_write(self):
        from repro.device import Stage, Timeline
        from repro.parallel import CodecWorkerPool

        store, _ = make_store()
        store.init_zero_state()
        hops = Timeline()
        store.report_hops_to(hops)
        new = np.full(8, 0.25 + 0j)
        with CodecWorkerPool(store.compressor, workers=2) as pool:
            store.attach_lane(pool)
            store.store(3, new)
            np.testing.assert_array_equal(store.load(3), new)
            store.store(4, new)
            assert store.get_blob(4) == store.compressor.compress(new)
            store.store(5, new)
            store.permute([5, 1, 2, 3, 4, 0, 6, 7])
            np.testing.assert_array_equal(store.load(0), new)
            store.store(6, new)
            store.zero_chunk(6)
            store.detach_lane()
        assert store.is_zero_chunk(6)
        # every lane write is booked, on its lane
        assert hops.count(Stage.COMPRESS) == 4
        assert all(r[6] > 0 for r in hops.rows if r[0] == Stage.COMPRESS)

    def test_write_drops_a_stale_prefetch(self):
        from repro.device import Stage, Timeline
        from repro.parallel import CodecWorkerPool

        store, _ = make_store()
        store.init_zero_state()
        hops = Timeline()
        store.report_hops_to(hops)
        new = np.full(8, 0.25 + 0j)
        with CodecWorkerPool(store.compressor, workers=2) as pool:
            store.attach_lane(pool)
            store.will_need([2])          # starts decoding the zero chunk
            store.store(2, new)
            np.testing.assert_array_equal(store.load(2), new)
            store.detach_lane()
        # the stale job is dropped unbooked: the one load decoded the new
        # blob inline, after the write landed
        [load] = [r for r in hops.rows if r[0] == Stage.DECOMPRESS]
        assert load[6] == 0


class TestEntropyChoiceCounters:
    def test_store_counts_entropy_choice(self, random_state_fn):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        tracker = MemoryTracker()
        lay = ChunkLayout(14, 13)  # one 2^13-amplitude chunk per store
        store = CompressedChunkStore(
            lay, get_compressor("szlike", error_bound=1e-5), tracker)
        tel.watch(store=store)
        store.init_from_statevector(random_state_fn(14, seed=5))
        counts = {
            name.rsplit(".", 1)[-1]: v
            for name, v in tel.metrics.snapshot()["counters"].items()
            if name.startswith("codec.entropy_choice.")
        }
        assert sum(counts.values()) == lay.num_chunks
        assert set(counts) <= {"zlib", "fixed", "raw"}
        # a random state's codes are noise: the store must see the new stage
        assert counts.get("fixed", 0) > 0

    def test_lane_counts_entropy_choice_like_inline(self):
        """Blobs a lane worker produced are sniffed parent-side: every
        ``codec.*`` counter reads what the inline store's reads."""
        def counters(tel):
            return {name: v
                    for name, v in tel.metrics.snapshot()["counters"].items()
                    if name.startswith("codec.")}

        _, tel_i, _, _ = drive(1)
        _, tel_l, _, _ = drive(2)
        assert counters(tel_l) == counters(tel_i)
        assert any(name.startswith("codec.entropy_choice.")
                   for name in counters(tel_l))

    def test_non_szl1_codec_contributes_nothing(self):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        lay = ChunkLayout(6, 3)
        store = CompressedChunkStore(
            lay, get_compressor("zlib"), MemoryTracker())
        tel.watch(store=store)
        store.init_zero_state()
        assert not any(
            name.startswith("codec.entropy_choice.")
            for name in tel.metrics.snapshot()["counters"])
