"""Fault injection: a compress that raises on a lane, at every pass.

The compress side of ``test_lane_decompress.py``: for every group pass of
``qft(10)`` at chunk 4 that writes through the lane — with one and two
lanes, and once more behind a 4-chunk Belady cache, whose writes are its
evictions and its write-back — a codec whose first lane compress of that
pass raises must end the run with that error and leave nothing behind:
no job in flight, no lane attached, a shared arena empty, and a store
every chunk of which still decodes.
"""

import threading

import numpy as np
import pytest

from repro.circuits import get_workload
from repro.compression import ZlibCompressor
from repro.core import MemQSim, MemQSimConfig, PlanCache
from repro.device import DeviceArena, DeviceSpec
from repro.memory import ChunkLayout, CompressedChunkStore
from repro.parallel import CodecWorkerPool

N, CHUNK_QUBITS = 10, 4
CFG = MemQSimConfig(chunk_qubits=CHUNK_QUBITS, compressor="zlib",
                    device=DeviceSpec(memory_bytes=(1 << 6) * 16))
CACHED = CFG.with_updates(cache_chunks=4, cache_policy="belady")
#: every run compiles the same plan; compile it once
PLANS = PlanCache()


class RaiseOnKthLaneCompress(ZlibCompressor):
    """zlib; its k-th compress on a lane thread raises (``k`` 0 never)."""

    def __init__(self, k: int = 0):
        super().__init__()
        self.k = k
        self.lane_encodes = 0
        self._lock = threading.Lock()

    def compress(self, data):
        if threading.current_thread() is not threading.main_thread():
            with self._lock:
                self.lane_encodes += 1
                fire = self.lane_encodes == self.k
            if fire:
                raise RuntimeError(f"lane compress {self.k} failed")
        return super().compress(data)


def laned_run(k, workers, cfg=CFG):
    """qft(10) from a |0...0> store on ``workers`` lanes of a codec that
    raises at its k-th lane encode. Returns the store, the arena, the
    pass (counted from 1) each lane compress was submitted in, and the
    error."""
    codec = RaiseOnKthLaneCompress(k)
    store = CompressedChunkStore(ChunkLayout(N, CHUNK_QUBITS), codec)
    store.init_zero_state()
    arena = DeviceArena(DeviceSpec(memory_bytes=64 << 10))
    passes, submitted_in = [0], []
    will_need = store.will_need

    def counted(*args, **kw):  # the scheduler's one hint per group pass
        passes[0] += 1
        return will_need(*args, **kw)

    store.will_need = counted
    with CodecWorkerPool(codec, workers=workers) as pool:
        submit = pool.submit_compress

        def recorded(chunk, data):
            submitted_in.append(passes[0])
            return submit(chunk, data)

        pool.submit_compress = recorded
        error = None
        try:
            MemQSim(cfg, arena=arena, codec_pool=pool,
                    plan_cache=PLANS).run(get_workload("qft", N),
                                          initial_store=store)
        except RuntimeError as exc:
            error = exc
    return store, arena, submitted_in, error


def first_compress_of_each_pass(cfg):
    """Per group pass that submits a lane compress, the index (from 1) of
    its first one, read off the clean run."""
    _store, _arena, submitted_in, error = laned_run(0, 1, cfg)
    assert error is None
    firsts = {}
    for k, p in enumerate(submitted_in, start=1):
        firsts.setdefault(p, k)
    return list(firsts.values())


@pytest.mark.parametrize("workers, cfg", [(1, CFG), (2, CFG), (2, CACHED)],
                         ids=["1", "2", "2-belady"])
def test_a_lane_compress_raising_at_every_pass(workers, cfg):
    ks = first_compress_of_each_pass(cfg)
    assert len(ks) > 8
    for k in ks:
        store, arena, _submitted, error = laned_run(k, workers, cfg)
        assert isinstance(error, RuntimeError), k
        assert str(error) == f"lane compress {k} failed"
        assert not store._pending and not store._prefetched, k
        assert store.lane is None, k
        assert arena.used == 0, k
        for chunk in range(store.layout.num_chunks):   # inline, each decodes
            assert np.isfinite(store.load(chunk)).all(), (k, chunk)
