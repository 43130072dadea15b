"""Structural hashes and plan keys: stability, sensitivity, separation."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.circuits import Circuit, ghz, qft, vqe_ansatz
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


class TestShapeAndValues:
    """The split the plan cache keys on: shape picks the template, values
    say whether the plan bound last can be reused as it is."""

    def test_two_draws_of_one_ansatz_share_the_shape(self):
        a = vqe_ansatz(6, layers=2, seed=1)
        b = vqe_ansatz(6, layers=2, seed=2)
        (shape_a, values_a), (shape_b, values_b) = \
            a.shape_and_values(), b.shape_and_values()
        assert shape_a == shape_b
        assert values_a != values_b
        assert a.structural_hash() != b.structural_hash()
        assert np.array_equal(np.frombuffer(values_a, dtype="<f8"),
                              [p for g in a for p in g.params])

    def test_same_circuit_same_both(self):
        assert vqe_ansatz(5, seed=3).shape_and_values() == \
            vqe_ansatz(5, seed=3).shape_and_values()

    @pytest.mark.parametrize("other", [
        Circuit(3).ry(0.4, 0).cx(0, 2).rz(0.9, 1),   # a changed qubit
        Circuit(3).rx(0.4, 0).cx(0, 1).rz(0.9, 1),   # a changed name
        Circuit(3).ry(0.4, 0).cx(0, 1),              # a dropped gate
        Circuit(4).ry(0.4, 0).cx(0, 1).rz(0.9, 1),   # a changed width
    ])
    def test_shape_differs(self, other):
        base = Circuit(3).ry(0.4, 0).cx(0, 1).rz(0.9, 1)
        assert base.shape_and_values()[0] != other.shape_and_values()[0]

    def test_unitary_payload_is_shape(self, rng):
        u = np.linalg.qr(rng.normal(size=(2, 2))
                         + 1j * rng.normal(size=(2, 2)))[0]
        a = Circuit(1).unitary(u, 0)
        b = Circuit(1).unitary(u * np.exp(0.1j), 0)
        assert a.shape_and_values()[0] != b.shape_and_values()[0]
        assert a.shape_and_values()[1] == b.shape_and_values()[1] == b""

    def test_stored_diagonal_payload_is_shape(self):
        a = Circuit(2).diagonal(np.array([1, 1j, -1, -1j]), 0, 1)
        b = Circuit(2).diagonal(np.array([1, -1j, -1, 1j]), 0, 1)
        assert a.shape_and_values()[0] != b.shape_and_values()[0]

    def test_values_are_bitwise(self):
        plus = Circuit(1).rz(0.0, 0).shape_and_values()
        minus = Circuit(1).rz(-0.0, 0).shape_and_values()
        assert plus[0] == minus[0] and plus[1] != minus[1]

    def test_parameter_count_is_shape(self):
        # Values are a flat byte string: where one gate's end and the
        # next one's begin is the shape's to say.
        a = Circuit(1).u(0.1, 0.2, 0.3, 0)
        b = Circuit(1).rz(0.1, 0).rz(0.2, 0).rz(0.3, 0)
        assert a.shape_and_values()[1] == b.shape_and_values()[1]
        assert a.shape_and_values()[0] != b.shape_and_values()[0]


#: plan_key() wants every plan knob resolved; an unset fuse_gates is not
RESOLVED = MemQSimConfig(fuse_gates=False)


class TestPlanKey:
    def test_default_stable(self):
        assert RESOLVED.plan_key() == RESOLVED.with_updates().plan_key()

    @pytest.mark.parametrize("field, value", [
        ("chunk_qubits", 7),
        ("enable_permutation_stages", False),
        ("fuse_gates", True),
    ])
    def test_plan_knobs_change_key(self, field, value):
        base = RESOLVED
        assert base.plan_key() != base.with_updates(**{field: value}).plan_key()

    @pytest.mark.parametrize("field, value", [
        ("compressor", "zlib"),
        ("workers", 4),
        ("host_store_mb", 0.5),
        ("disk_path", "blobs.log"),
        ("cache_chunks", 8),
        ("monitor_interval_ms", 10.0),
    ])
    def test_execution_knobs_do_not_change_key(self, field, value):
        base = RESOLVED
        assert base.plan_key() == base.with_updates(**{field: value}).plan_key()

    def test_device_memory_changes_key(self):
        from repro.device import DeviceSpec

        base = RESOLVED
        small = base.with_updates(
            device=DeviceSpec(memory_bytes=1 << 16))
        assert base.plan_key() != small.plan_key()
