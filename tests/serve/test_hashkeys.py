"""Structural hashes and plan keys: stability, sensitivity, separation."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.circuits import Circuit, ghz, qft
from repro.core import MemQSimConfig


class TestStructuralHash:
    def test_deterministic_within_process(self):
        assert qft(8).structural_hash() == qft(8).structural_hash()

    def test_hex_sha256_shape(self):
        h = ghz(5).structural_hash()
        assert len(h) == 64
        int(h, 16)  # hex-parseable

    def test_gate_order_sensitive(self):
        a = Circuit(2).h(0).x(1)
        b = Circuit(2).x(1).h(0)
        assert a.structural_hash() != b.structural_hash()

    def test_qubit_assignment_sensitive(self):
        a = Circuit(3).cx(0, 1)
        b = Circuit(3).cx(0, 2)
        assert a.structural_hash() != b.structural_hash()

    def test_param_sensitive(self):
        a = Circuit(1).rz(0.5, 0)
        b = Circuit(1).rz(0.5000001, 0)
        assert a.structural_hash() != b.structural_hash()

    def test_width_sensitive(self):
        assert Circuit(3).h(0).structural_hash() \
            != Circuit(4).h(0).structural_hash()

    def test_name_is_provenance_not_structure(self):
        a = qft(6)
        b = qft(6)
        b.name = "renamed"
        assert a.structural_hash() == b.structural_hash()

    def test_distinct_workloads_distinct(self):
        hashes = {qft(8).structural_hash(), ghz(8).structural_hash(),
                  qft(9).structural_hash()}
        assert len(hashes) == 3

    def test_matrix_gate_sensitive(self, rng):
        u = np.linalg.qr(rng.normal(size=(2, 2))
                         + 1j * rng.normal(size=(2, 2)))[0]
        a = Circuit(1).unitary(u, 0)
        b = Circuit(1).unitary(u * np.exp(0.1j), 0)
        assert a.structural_hash() != b.structural_hash()

    def test_stable_across_processes(self):
        """The hash keys an on-disk-shareable cache: no PYTHONHASHSEED."""
        code = ("import sys; sys.path.insert(0, 'src'); "
                "from repro.circuits import qft; "
                "print(qft(7).structural_hash())")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, cwd=".",
        ).stdout.strip()
        assert out == qft(7).structural_hash()


class TestPlanKey:
    def test_default_stable(self):
        assert MemQSimConfig().plan_key() == MemQSimConfig().plan_key()

    @pytest.mark.parametrize("field, value", [
        ("chunk_qubits", 7),
        ("min_chunks", 8),
        ("max_chunk_qubits", 10),
        ("enable_permutation_stages", False),
        ("fuse_gates", True),
        ("max_fuse_qubits", 4),
    ])
    def test_plan_knobs_change_key(self, field, value):
        base = MemQSimConfig()
        assert base.plan_key() != base.with_updates(**{field: value}).plan_key()

    @pytest.mark.parametrize("field, value", [
        ("compressor", "zlib"),
        ("transfer", "async"),
        ("workers", 4),
        ("host_store_mb", 0.5),
        ("disk_path", "blobs.log"),
        ("cache_chunks", 8),
        ("cpu_offload_fraction", 0.5),
        ("monitor_interval_ms", 10.0),
    ])
    def test_execution_knobs_do_not_change_key(self, field, value):
        base = MemQSimConfig()
        assert base.plan_key() == base.with_updates(**{field: value}).plan_key()

    def test_device_memory_changes_key(self):
        from repro.device import DeviceSpec

        base = MemQSimConfig()
        small = base.with_updates(
            device=DeviceSpec(memory_bytes=1 << 16))
        assert base.plan_key() != small.plan_key()

    def test_buffer_count_changes_key_only_at_double_buffer_boundary(self):
        base = MemQSimConfig(num_buffers=2)
        assert base.plan_key() == base.with_updates(num_buffers=3).plan_key()
        assert base.plan_key() != base.with_updates(num_buffers=1).plan_key()
