"""Integration: the precision axis end to end.

Three claims ride here: (1) reduced precision is deterministic — a c64 run
is bit-identical with and without a codec lane pool; (2) c64
accuracy is measurably excellent at small n (streamed QFT overlap vs the
dense c128 oracle stays within 1e-6 of unity); (3) mixed mode is at least
as accurate as plain c64, since it only rounds at stage boundaries.
"""

import numpy as np
import pytest

from repro.circuits import get_workload
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec, HostSpec
from repro.statevector import DenseSimulator


def tight(chunk_qubits, **kw):
    itemsize = 8 if kw.get("precision") in ("c64", "mixed") else 16
    return MemQSimConfig(
        chunk_qubits=chunk_qubits,
        compressor="zlib",
        device=DeviceSpec(
            memory_bytes=(1 << (chunk_qubits + 1)) * itemsize * 2),
        host=HostSpec(memory_bytes=1 << 26),
        **kw,
    )


class TestSerialParallelBitIdentity:
    @pytest.mark.parametrize("workload", ["qft", "random"])
    def test_c64_digest_matches(self, workload):
        circ = get_workload(workload, 8)
        serial = MemQSim(
            tight(4, precision="c64")).run(circ)
        parallel = MemQSim(
            tight(4, precision="c64", workers=2)).run(circ)
        assert serial.state_digest() == parallel.state_digest()
        assert serial.statevector().dtype == np.complex64

    def test_mixed_digest_matches(self):
        circ = get_workload("qft", 8)
        serial = MemQSim(
            tight(4, precision="mixed")).run(circ)
        parallel = MemQSim(
            tight(4, precision="mixed", workers=2)).run(circ)
        assert serial.state_digest() == parallel.state_digest()


class TestFidelityBounds:
    @pytest.mark.parametrize("n", [10, 14])
    def test_c64_qft_overlap(self, n):
        circ = get_workload("qft", n)
        res = MemQSim(tight(5, precision="c64")).run(circ)
        fid = res.precision_fidelity()
        assert fid["method"] == "oracle"
        assert fid["overlap"] >= 1.0 - 1e-6
        assert abs(fid["norm_drift"]) <= 1e-5
        # the loose analytic bound must never beat the measurement
        assert fid["overlap"] >= fid["analytic_overlap_bound"]

    def test_mixed_at_least_as_accurate_as_c64(self):
        circ = get_workload("qft", 10)
        ref = DenseSimulator().run(circ).data
        f64 = MemQSim(tight(5, precision="c64")).run(circ).fidelity_vs(ref)
        fmx = MemQSim(tight(5, precision="mixed")).run(circ).fidelity_vs(ref)
        assert fmx >= f64 - 1e-12
        assert fmx >= 1.0 - 1e-6

    def test_c128_fidelity_exact(self):
        res = MemQSim(tight(4)).run(get_workload("qft", 8))
        fid = res.precision_fidelity()
        assert fid["method"] == "exact"
        assert fid["overlap"] == 1.0
        assert fid["analytic_overlap_bound"] == 1.0

    def test_fidelity_in_to_dict(self):
        res = MemQSim(tight(4, precision="c64")).run(get_workload("ghz", 8))
        doc = res.to_dict()
        fid = doc["precision_fidelity"]
        assert fid["precision"] == "c64"
        assert fid["overlap"] is not None
        assert doc["config_echo"]["precision"] == "c64"
