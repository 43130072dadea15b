"""One device buffer per run.

The scheduler allocates one arena buffer when a run starts, as wide as
the widest group pass that runs, and every pass works in a head of it
(``DeviceBuffer.head``). So a run makes exactly one arena allocation
whatever its group widths, its ``peak_device_bytes`` is what one buffer
per pass gave (pinned below from the per-pass allocator), and the buffer
goes back to the arena on every exit: a normal one, a cancel, a codec
error on a lane.
"""

import threading

import numpy as np
import pytest

from repro.circuits import Circuit, get_workload
from repro.compression import ZlibCompressor, get_compressor
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceArena, DeviceExecutor, DeviceSpec
from repro.device.timeline import Timeline
from repro.memory import (BufferPool, ChunkLayout, CompressedChunkStore,
                          MemoryTracker)
from repro.parallel import CodecWorkerPool
from repro.pipeline import (CancelToken, JobCancelled, StageScheduler,
                            plan_stages, predict_pass_schedule)
from tests.compression.test_codec_bytes import e2e_smoke_runs

#: ``peak_device_bytes`` of BENCH_E2E's four smoke runs as the per-pass
#: allocator (an arena buffer allocated and freed by every pass) gave them
SMOKE_PEAKS = {"dense_lossy": 16384, "sparse_lossless": 4096,
               "hierarchy_spill": 8192, "variational_sweep": 1024}


def counting(arena):
    """Count ``arena.alloc`` calls (returns the list of sizes asked)."""
    sizes, alloc = [], arena.alloc

    def counted(size, dtype=None):
        sizes.append(size)
        return alloc(size, dtype=dtype)
    arena.alloc = counted
    return sizes


def two_widths():
    """Stage 0 streams groups of three global qubits, stage 1 of one."""
    return Circuit(8).h(0).cx(7, 0).h(1).cx(6, 5).cx(5, 4).cx(4, 6)


def rig(arena_amps=1 << 10):
    lay = ChunkLayout(8, 3)
    tracker = MemoryTracker()
    store = CompressedChunkStore(lay, get_compressor("zlib"), tracker)
    store.init_zero_state()
    timeline = Timeline()
    ex = DeviceExecutor(DeviceSpec(memory_bytes=arena_amps * 16),
                        timeline=timeline, tracker=tracker)
    pool = BufferPool(1, 1 << 6, tracker)
    return lay, store, ex, tracker, StageScheduler(lay, store, ex, pool,
                                                   timeline)


class TestOneAllocationPerRun:
    def test_a_run_with_two_group_widths_allocates_once(self):
        lay, store, ex, tracker, sched = rig()
        stages = plan_stages(two_widths(), lay, 3)
        assert [len(s.group_qubits) for s in stages] == [3, 1]
        sizes = counting(ex.arena)
        sched.run(stages)
        assert sizes == [lay.chunk_size << 3]
        assert ex.arena.used == 0
        assert tracker.peak("device_arena") == (lay.chunk_size << 3) * 16

    def test_the_facade_allocates_once_per_run(self):
        arena = DeviceArena(DeviceSpec(memory_bytes=64 << 10))
        sizes = counting(arena)
        cfg = MemQSimConfig(chunk_qubits=5, compressor="zlib",
                            device=DeviceSpec(memory_bytes=4 << 10))
        res = MemQSim(cfg, arena=arena).run(get_workload("vqe", 10))
        widths = {len(s.group_qubits) for s in res.compiled_stages
                  if hasattr(s, "group_qubits")}
        assert len(widths) > 1
        assert len(sizes) == 1
        assert arena.used == 0

    def test_the_buffer_is_as_wide_as_the_widest_pass_that_runs(self):
        lay, store, ex, tracker, sched = rig()
        stages = plan_stages(two_widths(), lay, 3)
        passes = [p for p in predict_pass_schedule(stages, lay, support={0})
                  if p[1] == 1]  # the wide stage streams nothing
        sizes = counting(ex.arena)
        sched.run(stages, passes)
        assert sizes == [lay.chunk_size << 1]
        assert tracker.peak("device_arena") == 256  # the per-pass peak

    def test_a_run_that_streams_nothing_allocates_nothing(self):
        lay, store, ex, tracker, sched = rig()
        store.init_from_statevector(np.zeros(lay.num_amplitudes))
        sizes = counting(ex.arena)
        sched.run(plan_stages(two_widths(), lay, 3))
        assert sizes == [] and tracker.peak("device_arena") == 0

    def test_a_head_is_a_view_not_an_allocation(self):
        arena = DeviceArena(DeviceSpec(memory_bytes=1 << 10))
        buf = arena.alloc(32, dtype=np.complex64)
        head = buf.head(8)
        assert head.view.base is not None
        assert np.shares_memory(head.view, buf.view)
        assert head.nbytes == 64 and arena.used == buf.back_size
        with pytest.raises(ValueError):
            arena.free(head)
        with pytest.raises(ValueError):
            buf.head(33)
        arena.free(buf)
        assert arena.used == 0


@pytest.mark.parametrize("label,circuit,config", list(e2e_smoke_runs()),
                         ids=[r[0] for r in e2e_smoke_runs()])
def test_peak_device_bytes_are_the_per_pass_peaks(label, circuit, config):
    res = MemQSim(**config).run(circuit)
    assert res.peak_device_bytes == SMOKE_PEAKS[label]


class FireAtNthCheck(CancelToken):
    def __init__(self, n):
        super().__init__()
        self.checks, self.n = 0, n

    def raise_if_cancelled(self):
        self.checks += 1
        if self.checks == self.n:
            self.cancel("mid-run")
        super().raise_if_cancelled()


class RaisesOnALane(ZlibCompressor):
    """zlib inline; raises when a lane thread compresses."""

    def compress(self, data):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("codec failed on a lane")
        return super().compress(data)


class TestASharedArenaIsLeftEmpty:
    CFG = MemQSimConfig(chunk_qubits=5, compressor="zlib",
                        device=DeviceSpec(memory_bytes=(1 << 7) * 16))

    def shared(self):
        return DeviceArena(DeviceSpec(memory_bytes=64 << 10))

    def test_after_a_normal_exit(self):
        arena = self.shared()
        MemQSim(self.CFG, arena=arena).run(get_workload("qft", 9))
        assert arena.used == 0 and arena.peak_amplitudes > 0

    def test_after_a_cancel(self):
        arena = self.shared()
        sim = MemQSim(self.CFG, arena=arena, cancel=FireAtNthCheck(4))
        with pytest.raises(JobCancelled, match="mid-run"):
            sim.run(get_workload("qft", 9))
        assert arena.used == 0 and arena.peak_amplitudes > 0

    def test_after_a_codec_error_on_a_lane(self):
        arena = self.shared()
        with CodecWorkerPool(RaisesOnALane(), workers=1) as pool:
            sim = MemQSim(self.CFG, arena=arena, codec_pool=pool)
            with pytest.raises(RuntimeError, match="codec failed on a lane"):
                sim.run(get_workload("qft", 9))
        assert arena.used == 0 and arena.peak_amplitudes > 0
