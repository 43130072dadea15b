"""Unit tests for the device executor."""

import numpy as np
import pytest

from repro.circuits import gate_matrix, make_gate
from repro.core import Backend
from repro.device import (
    DeviceExecutor,
    DeviceOutOfMemory,
    DeviceSpec,
    Stage,
    make_strategy,
)
from repro.statevector import apply_gate


def rand(n, seed=0):
    g = np.random.default_rng(seed)
    v = g.standard_normal(n) + 1j * g.standard_normal(n)
    return v / np.linalg.norm(v)


@pytest.fixture
def ex():
    return DeviceExecutor(DeviceSpec(memory_bytes=256 * 16))


class TestRoundTrip:
    def test_upload_compute_download(self, ex):
        host = rand(16, 1)
        buf = ex.alloc(16)
        ex.upload(host, buf, 0)
        g = make_gate("h", (2,))
        ex.run_ops(buf, [g], 0)
        out = np.empty(16, dtype=np.complex128)
        ex.download(buf, out, 0)
        want = host.copy()
        apply_gate(want, gate_matrix("h"), (2,))
        assert np.allclose(out, want, atol=1e-12)
        ex.free(buf)

    def test_multiple_gates_batched(self, ex):
        host = rand(8, 2)
        buf = ex.alloc(8)
        ex.upload(host, buf)
        gates = [make_gate("h", (0,)), make_gate("cx", (0, 1)), make_gate("t", (2,))]
        ex.run_ops(buf, gates)
        out = np.empty(8, dtype=np.complex128)
        ex.download(buf, out)
        want = host.copy()
        for g in gates:
            apply_gate(want, g.matrix, g.qubits)
        assert np.allclose(out, want, atol=1e-12)


    def test_async_issue_then_sync(self, ex):
        """Two batches issued back to back are both applied by the time the
        buffer comes back, and each call says how long its batch took."""
        host = rand(8, 3)
        buf = ex.alloc(8)
        ex.upload(host, buf)
        secs = [ex.run_ops(buf, [make_gate("x", (0,))]) for _ in range(2)]
        assert all(s >= 0 for s in secs)
        out = np.empty(8, dtype=np.complex128)
        ex.download(buf, out)
        assert np.allclose(out, host)  # x twice = identity
        assert ex.timeline.count(Stage.KERNEL) == 2
        assert [row[7] for row in ex.timeline.rows
                if row[0] == Stage.KERNEL] == [1, 1]  # one op per batch


class TestTelemetry:
    def test_timeline_events(self, ex):
        host = rand(8, 4)
        buf = ex.alloc(8)
        ex.upload(host, buf, chunk=7)
        ex.run_ops(buf, [make_gate("h", (0,))], chunk=7)
        ex.download(buf, host, chunk=7)
        kinds = [row[0] for row in ex.timeline.rows]
        assert kinds == [Stage.H2D, Stage.KERNEL, Stage.D2H]
        # the group pass is the row's group; a whole buffer names no chunk
        assert all(row[3:5] == (7, -1) for row in ex.timeline.rows)

    def test_transfer_strategy_pluggable(self):
        ex = DeviceExecutor(
            DeviceSpec(memory_bytes=64 * 16), transfer=make_strategy("buffer", 64)
        )
        host = rand(32, 5)
        buf = ex.alloc(32)
        ex.upload(host, buf)
        assert np.array_equal(buf.view[:32], host)

    def test_backend_pluggable(self):
        calls = []

        class SpyBackend(Backend):
            def apply(self, view, gates):
                calls.append(len(gates))

        ex = DeviceExecutor(DeviceSpec(memory_bytes=64 * 16), backend=SpyBackend())
        buf = ex.alloc(8)
        ex.run_ops(buf, [make_gate("x", (0,))])
        assert calls == [1]


class TestCapacity:
    def test_oom_propagates(self, ex):
        with pytest.raises(DeviceOutOfMemory):
            ex.alloc(1 << 20)

    def test_can_fit(self, ex):
        assert ex.can_fit(256)
        assert not ex.can_fit(257)
        buf = ex.alloc(200)
        assert not ex.can_fit(100)
        ex.free(buf)
        assert ex.can_fit(256)

    def test_reset(self, ex):
        ex.alloc(128)
        ex.alloc(16)
        ex.reset()
        assert ex.arena.used == 0
