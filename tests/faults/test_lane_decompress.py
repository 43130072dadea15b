"""Fault injection: a codec that raises on a lane, at every pass.

A compress that raises on a lane is covered where the lane is
(``tests/parallel/test_equivalence_parallel.py``,
``tests/pipeline/test_device_buffer.py``). This is the decompress side:
for every pass index k of ``qft(10)`` at chunk 4, with one and two lanes,
a codec whose k-th lane decompress raises must end the run with that
error and leave nothing behind — no job in flight, no lane attached, a
shared arena empty — and a store every chunk of which still decodes.
"""

import threading

import numpy as np
import pytest

from repro.circuits import get_workload
from repro.compression import ZlibCompressor
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceArena, DeviceSpec
from repro.memory import ChunkLayout, CompressedChunkStore
from repro.parallel import CodecWorkerPool
from repro.pipeline import predict_pass_schedule

N, CHUNK_QUBITS = 10, 4
CFG = MemQSimConfig(chunk_qubits=CHUNK_QUBITS, compressor="zlib",
                    device=DeviceSpec(memory_bytes=(1 << 6) * 16))


class RaiseOnKthLaneDecompress(ZlibCompressor):
    """zlib; its k-th decompress on a lane thread raises (``k`` 0 never)."""

    def __init__(self, k: int = 0):
        super().__init__()
        self.k = k
        self.lane_decodes = 0
        self._lock = threading.Lock()

    def decompress(self, blob, out=None):
        if threading.current_thread() is not threading.main_thread():
            with self._lock:
                self.lane_decodes += 1
                fire = self.lane_decodes == self.k
            if fire:
                raise RuntimeError(f"lane decompress {self.k} failed")
        return super().decompress(blob, out)


def laned_run(k, workers):
    """qft(10) from a |0...0> store on ``workers`` lanes of a codec that
    raises at its k-th lane decode; every lane submission is recorded."""
    codec = RaiseOnKthLaneDecompress(k)
    store = CompressedChunkStore(ChunkLayout(N, CHUNK_QUBITS), codec)
    store.init_zero_state()
    arena = DeviceArena(DeviceSpec(memory_bytes=64 << 10))
    submitted = []
    with CodecWorkerPool(codec, workers=workers) as pool:
        submit = pool.submit_decompress

        def recorded(chunk, blob):
            submitted.append(blob)
            return submit(chunk, blob)

        pool.submit_decompress = recorded
        error = None
        try:
            res = MemQSim(CFG, arena=arena, codec_pool=pool).run(
                get_workload("qft", N), initial_store=store)
        except RuntimeError as exc:
            res, error = None, exc
    return store, arena, codec, submitted, res, error


@pytest.fixture(scope="module")
def clean():
    """The run with no fault: its pass count and lane decode count."""
    store, arena, codec, submitted, res, error = laned_run(0, 2)
    assert error is None
    passes = sum(kind == "pass" for kind, *_ in predict_pass_schedule(
        res.compiled_stages, store.layout, {0}))
    return passes, codec.lane_decodes, store.to_statevector()


def test_the_clean_run_decodes_on_the_lane_at_least_once_a_pass(clean):
    passes, lane_decodes, state = clean
    assert passes > 8
    assert lane_decodes >= passes
    assert np.isclose(np.linalg.norm(state), 1.0)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_lane_decompress_raising_at_every_pass(clean, workers):
    passes, _lane_decodes, _state = clean
    for k in range(1, passes + 1):
        store, arena, _codec, submitted, _res, error = laned_run(k, workers)
        assert isinstance(error, RuntimeError), k
        assert str(error) == f"lane decompress {k} failed"
        assert not store._pending and not store._prefetched, k
        assert store.lane is None, k
        assert arena.used == 0, k
        zero = store.zero_blob_bytes()
        assert submitted and all(blob is not zero for blob in submitted), k
        for chunk in range(store.layout.num_chunks):   # inline, each decodes
            assert np.isfinite(store.load(chunk)).all(), (k, chunk)


@pytest.mark.parametrize("workers", [1, 2])
def test_no_lane_job_decodes_the_zero_blob(workers):
    store, _arena, codec, submitted, res, error = laned_run(0, workers)
    assert error is None
    zero = store.zero_blob_bytes()
    assert zero is not None and submitted
    assert all(blob is not zero for blob in submitted)
    assert codec.lane_decodes == len(submitted)
