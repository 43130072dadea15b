"""Unit tests for the timeline and the modelled-makespan what-if."""

import pytest

from repro.analysis import PipelineModel
from repro.device import Stage, Timeline
from repro.device.timeline import ROW_FIELDS


def ev(stage, dur, group):
    """A row as a run books it, starting at 0 (the model ignores starts)."""
    return (stage, 0.0, dur, group, -1, 0, 0, 0, -1, 0)


class TestTimeline:
    def test_record_and_sums(self):
        t = Timeline()
        t.record(Stage.DECOMPRESS, 0.0, 0.5, 0)
        t.record(Stage.KERNEL, 0.5, 0.25, 0)
        t.record(Stage.DECOMPRESS, 0.75, 0.5, 1)
        assert t.serial_seconds() == pytest.approx(1.25)
        assert t.serial_seconds(Stage.DECOMPRESS) == pytest.approx(1.0)
        assert t.count() == 3
        assert t.count(Stage.KERNEL) == 1

    def test_breakdown(self):
        t = Timeline()
        t.record(Stage.H2D, 0.0, 0.1, 0)
        t.record(Stage.H2D, 0.1, 0.2, 1)
        assert t.stage_breakdown() == {"h2d": pytest.approx(0.3)}

    def test_negative_durations_clamped(self):
        t = Timeline()
        t.record(Stage.KERNEL, 0.0, -1.0, 0)
        assert t.rows[-1][ROW_FIELDS.index("seconds")] == 0.0

    def test_rows_keep_booking_order(self):
        """A row is a plain tuple of :data:`ROW_FIELDS`, kept in the order
        the hops were booked (what the overlap model replays)."""
        t = Timeline()
        t.record(Stage.H2D, 1.0, 0.1, 3, -1, 64)
        t.record(Stage.KERNEL, 1.1, 0.2, 3, -1, 64, 0, 5)
        t.record(Stage.COMPRESS, 0.9, 0.1, 3, 7, 32, 2)
        assert [r[0] for r in t.rows] == [Stage.H2D, Stage.KERNEL,
                                          Stage.COMPRESS]
        assert dict(zip(ROW_FIELDS, t.rows[2])) == {
            "stage": Stage.COMPRESS, "start": 0.9, "seconds": 0.1,
            "group": 3, "chunk": 7, "nbytes": 32, "lane": 2, "ops": 0,
            "stage_index": -1, "blob_bytes": 0}
        assert t.rows[1][ROW_FIELDS.index("ops")] == 5

    def test_rows_carry_the_stage_set_on_the_timeline(self):
        """A row is of the stage the timeline names when it is booked, and
        a codec row carries its blob's bytes."""
        t = Timeline()
        t.record(Stage.COMPRESS, 0.0, 0.1, 0, 1, 64, 0, 0, 9)
        t.stage_index = 4
        t.record(Stage.DISK_WRITE, 0.1, 0.1, 0, -1, 9)
        at = ROW_FIELDS.index
        assert [(r[at("stage_index")], r[at("blob_bytes")]) for r in t.rows] \
            == [(-1, 9), (4, 0)]

    def test_clear(self):
        t = Timeline()
        t.record(Stage.H2D, 0.0, 0.1, 0)
        t.clear()
        assert t.count() == 0


class TestPipelineModel:
    def test_single_chain_is_serial(self):
        events = [
            ev(Stage.DECOMPRESS, 1.0, 0),
            ev(Stage.H2D, 1.0, 0),
            ev(Stage.KERNEL, 1.0, 0),
        ]
        _, makespan = PipelineModel().schedule(events)
        assert makespan == pytest.approx(3.0)

    def test_two_chunks_overlap(self):
        # Chunk 1's decompress can run while chunk 0 is on the bus/GPU.
        events = [ev(stage, 1.0, group) for group in (0, 1)
                  for stage in (Stage.DECOMPRESS, Stage.H2D, Stage.KERNEL)]
        _, makespan = PipelineModel().schedule(events)
        assert makespan == pytest.approx(4.0)  # perfect pipeline: 3 + 1

    def test_codec_resource_contention(self):
        # Two decompressions with one codec lane cannot overlap.
        events = [ev(Stage.DECOMPRESS, 1.0, 0), ev(Stage.DECOMPRESS, 1.0, 1)]
        _, m1 = PipelineModel(cpu_codec_lanes=1).schedule(events)
        _, m2 = PipelineModel(cpu_codec_lanes=2).schedule(events)
        assert m1 == pytest.approx(2.0)
        assert m2 == pytest.approx(1.0)

    def test_barrier_event_serializes(self):
        events = [
            ev(Stage.KERNEL, 1.0, 0),
            ev(Stage.CPU_UPDATE, 1.0, -1),  # barrier
            ev(Stage.KERNEL, 1.0, 1),
        ]
        _, makespan = PipelineModel().schedule(events)
        assert makespan == pytest.approx(3.0)

    def test_independent_resources_overlap(self):
        events = [ev(Stage.H2D, 1.0, 0), ev(Stage.D2H, 1.0, 1)]
        _, makespan = PipelineModel().schedule(events)
        assert makespan == pytest.approx(1.0)

    def test_makespan_of_timeline(self):
        t = Timeline()
        t.record(Stage.DECOMPRESS, 0.0, 1.0, 0)
        t.record(Stage.KERNEL, 1.0, 1.0, 0)
        assert PipelineModel().makespan(t) == pytest.approx(2.0)

    def test_makespan_never_exceeds_serial(self):
        import numpy as np

        rng = np.random.default_rng(0)
        t = Timeline()
        stages = list(Stage)
        for i in range(60):
            t.record(stages[int(rng.integers(len(stages)))], 0.0,
                     float(rng.uniform(0.01, 1)), int(rng.integers(6)))
        model = PipelineModel(cpu_codec_lanes=3, gpu_lanes=2)
        assert model.makespan(t) <= t.serial_seconds() + 1e-9

    def test_makespan_at_least_bottleneck_resource(self):
        t = Timeline()
        for i in range(5):
            t.record(Stage.KERNEL, float(i), 1.0, i)
        assert PipelineModel().makespan(t) >= 5.0 - 1e-9

    def test_gantt_renders(self):
        t = Timeline()
        t.record(Stage.DECOMPRESS, 0.0, 1.0, 0)
        t.record(Stage.KERNEL, 1.0, 1.0, 0)
        sched, _ = PipelineModel().schedule(t.rows)
        g = PipelineModel.gantt(sched)
        assert "cpu_codec" in g and "gpu" in g

    def test_gantt_empty(self):
        assert "empty" in PipelineModel.gantt([])

    def test_more_gpu_lanes_never_lengthen_a_real_run(self):
        from repro.circuits import random_circuit
        from repro.core import MemQSim, MemQSimConfig
        from repro.device import DeviceSpec

        res = MemQSim(MemQSimConfig(
            chunk_qubits=4, compressor="zlib",
            device=DeviceSpec(memory_bytes=1 << 13)),
        ).run(random_circuit(10, 60, seed=12))
        # Same measured events, more lanes: the makespan can only shrink
        # (deterministic — avoids comparing two noisy wall-clock runs).
        m1 = PipelineModel(cpu_codec_lanes=3, gpu_lanes=1).makespan(res.timeline)
        m4 = PipelineModel(cpu_codec_lanes=3, gpu_lanes=4).makespan(res.timeline)
        assert m4 <= m1 + 1e-9
        assert m1 <= res.serial_seconds + 1e-9
