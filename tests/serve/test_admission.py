"""Shared-arena admission control: lease ledger and capacity safety."""

from __future__ import annotations

import pytest

from repro.core import MemQSimConfig
from repro.device import DeviceArena, DeviceOutOfMemory, DeviceSpec
from repro.serve import JobRejected, ServeManager, device_lease_amplitudes
from repro.telemetry import Telemetry


def small_base(device_amps: int = 1 << 11, **kw) -> MemQSimConfig:
    """A daemon base config over a tiny shared arena."""
    return MemQSimConfig(
        device=DeviceSpec(memory_bytes=device_amps * 16), **kw)


class TestLeaseLedger:
    def test_lease_and_release(self):
        arena = DeviceArena(DeviceSpec(memory_bytes=1024 * 16))
        lease = arena.lease(512, name="a")
        assert arena.leased_amplitudes == 512
        assert arena.can_lease(512)
        assert not arena.can_lease(513)
        arena.release_lease(lease)
        assert arena.leased_amplitudes == 0

    def test_oversubscribe_raises(self):
        arena = DeviceArena(DeviceSpec(memory_bytes=1024 * 16))
        arena.lease(1024)
        with pytest.raises(DeviceOutOfMemory):
            arena.lease(1)

    def test_release_idempotent(self):
        arena = DeviceArena(DeviceSpec(memory_bytes=1024 * 16))
        lease = arena.lease(100)
        arena.release_lease(lease)
        arena.release_lease(lease)  # no-op, no raise
        assert arena.leased_amplitudes == 0

    def test_leases_independent_of_allocations(self):
        arena = DeviceArena(DeviceSpec(memory_bytes=1024 * 16))
        arena.lease(800)
        buf = arena.alloc(600)  # allocations don't consult the ledger
        assert arena.used == 600
        assert arena.leased_amplitudes == 800
        arena.free(buf)


class TestLeaseSizing:
    def test_lease_covers_one_group_buffer(self):
        cfg = small_base(chunk_qubits=6)
        amps = device_lease_amplitudes(10, cfg)
        # one buffer of chunk_size << t_max, and double-buffered planning
        # keeps it within half the device
        assert amps >= 1 << 6
        assert amps * 16 * 2 <= cfg.device.memory_bytes

    def test_two_tenants_always_admit(self):
        """two staging buffers planned => lease <= capacity/2 => 2 fit."""
        cfg = small_base(chunk_qubits=6)
        arena = DeviceArena(cfg.device)
        amps = device_lease_amplitudes(10, cfg)
        arena.lease(amps)
        assert arena.can_lease(amps)


class TestManagerAdmission:
    def test_impossible_job_rejected(self):
        mgr = ServeManager(small_base(), Telemetry())
        try:
            with pytest.raises(JobRejected, match="fit"):
                # a 12-qubit chunk alone overflows the 2^11-amplitude
                # arena — rejected at admission, never queued
                mgr.submit({"workload": "qft", "qubits": 12,
                            "config": {"chunk_qubits": 12}})
        finally:
            mgr.shutdown()

    def test_bad_payloads_rejected(self):
        mgr = ServeManager(small_base(), Telemetry())
        try:
            with pytest.raises(JobRejected):
                mgr.submit({"workload": "nope", "qubits": 8})
            with pytest.raises(JobRejected):
                mgr.submit({"qasm": "not qasm at all"})
            with pytest.raises(JobRejected):
                mgr.submit({"workload": "qft", "qubits": 8,
                            "config": {"device_mb": 1}})  # not overridable
            with pytest.raises(JobRejected):
                mgr.submit({})
        finally:
            mgr.shutdown()

    def test_the_removed_fusion_width_is_refused(self):
        # window widths are the launch-cost model's; the old knob is an
        # unknown override, refused at admission like any other
        mgr = ServeManager(small_base(), Telemetry())
        try:
            with pytest.raises(JobRejected,
                               match="unknown config override.*max_fuse"):
                mgr.submit({"workload": "qft", "qubits": 8,
                            "config": {"max_fuse_qubits": 4}})
        finally:
            mgr.shutdown()

    @pytest.mark.parametrize("override", [
        {"compressor": "nope"},
        {"error_bound": "abc"},
        {"error_bound": float("inf")},
        {"error_bound": float("nan")},
        {"error_bound": 0},
        {"error_bound": -1e-6},
        {"compressor": "zlib", "error_bound": "abc"},
    ])
    def test_bad_codec_or_bound_rejected(self, override):
        mgr = ServeManager(small_base(), Telemetry())
        try:
            with pytest.raises(JobRejected):
                mgr.submit({"workload": "qft", "qubits": 8,
                            "config": override})
            assert mgr.jobs() == []
        finally:
            mgr.shutdown()

    def test_the_removed_transfer_override_is_refused(self):
        # a run always copies synchronously; the strategy is Table 1's
        mgr = ServeManager(small_base(), Telemetry())
        try:
            with pytest.raises(JobRejected,
                               match="unknown config override.*transfer"):
                mgr.submit({"workload": "qft", "qubits": 8,
                            "config": {"transfer": "buffer"}})
        finally:
            mgr.shutdown()

    def test_the_removed_serpentine_override_is_refused(self):
        # every run sweeps in boustrophedon order; there is nothing to pick
        mgr = ServeManager(small_base(), Telemetry())
        try:
            with pytest.raises(JobRejected,
                               match="unknown config override.*serpentine"):
                mgr.submit({"workload": "qft", "qubits": 8,
                            "config": {"serpentine": False}})
        finally:
            mgr.shutdown()

    def test_the_removed_offload_override_is_refused(self):
        from repro.serve.jobs import CONFIG_OVERRIDES

        mgr = ServeManager(small_base(), Telemetry())
        try:
            with pytest.raises(JobRejected) as info:
                mgr.submit({"workload": "qft", "qubits": 8,
                            "config": {"cpu_offload_fraction": 0.5}})
            assert info.value.status == 400
            assert "unknown config override(s): cpu_offload_fraction" \
                in str(info.value)
            assert f"(allowed: {', '.join(sorted(CONFIG_OVERRIDES))})" \
                in str(info.value)
            assert mgr.jobs() == []
        finally:
            mgr.shutdown()

    def test_codec_override_carries_the_bound_only_when_lossy(self):
        mgr = ServeManager(small_base(), Telemetry())
        try:
            lossy = mgr.submit({"workload": "qft", "qubits": 8,
                                "config": {"error_bound": 1e-5}})
            lossless = mgr.submit({"workload": "qft", "qubits": 8,
                                   "config": {"compressor": "zlib"}})
            assert lossy.config.compressor_options == {"error_bound": 1e-5}
            assert lossless.config.compressor_options == {}
        finally:
            mgr.shutdown()

    def test_concurrent_jobs_never_exceed_capacity(self):
        """N concurrent jobs on a tiny arena: the mem gauge's high-water
        mark (and the arena's own peak) must stay within capacity."""
        tel = Telemetry()
        base = small_base(chunk_qubits=5)
        mgr = ServeManager(base, tel, max_jobs=4)
        try:
            jobs = [mgr.submit({"workload": "qft", "qubits": 9,
                                "tenant": f"t{i}"}) for i in range(4)]
            for job in jobs:
                _wait_terminal(mgr, job.id)
            assert all(mgr.get(j.id).state == "done" for j in jobs)
            capacity_bytes = mgr.arena.capacity * 16
            assert mgr.arena.peak_amplitudes * 16 <= capacity_bytes
            gauge = tel.metrics.gauge("mem.device_arena.bytes")
            assert gauge.max_value <= capacity_bytes
            assert gauge.max_value > 0  # something actually ran on it
        finally:
            mgr.shutdown()

    def test_leases_drain_to_zero(self):
        mgr = ServeManager(small_base(chunk_qubits=5), Telemetry())
        try:
            job = mgr.submit({"workload": "ghz", "qubits": 8})
            _wait_terminal(mgr, job.id)
            assert mgr.arena.leased_amplitudes == 0
            assert mgr.arena.used == 0
        finally:
            mgr.shutdown()


def _wait_terminal(mgr: ServeManager, job_id: str, timeout: float = 60.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = mgr.get(job_id)
        if job.finished:
            return job
        time.sleep(0.02)
    raise TimeoutError(f"job {job_id} still {mgr.get(job_id).state}")
