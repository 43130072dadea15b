"""Integration: lossy fidelity scaling and memory-footprint claims."""

import numpy as np
import pytest

from repro.analysis import compare_states, error_growth_profile
from repro.circuits import get_workload, qft
from repro.compression import fidelity_floor
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec, HostSpec
from repro.pipeline.planner import STAGING_BUFFERS
from repro.statevector import DenseSimulator


def cfg(eb=1e-7, chunk=4):
    return MemQSimConfig(
        chunk_qubits=chunk,
        compressor="szlike",
        compressor_options={"error_bound": eb},
        device=DeviceSpec(memory_bytes=(1 << (chunk + 1)) * 16 * 2),
        host=HostSpec(memory_bytes=1 << 26),
    )


class TestFidelityScaling:
    def test_fidelity_improves_with_tighter_bound(self):
        circ = get_workload("supremacy", 8)
        ref = DenseSimulator().run(circ).data
        fids = []
        for eb in (1e-3, 1e-5, 1e-7):
            res = MemQSim(cfg(eb)).run(circ)
            fids.append(compare_states(ref, res.statevector()).fidelity)
        assert fids[0] <= fids[1] + 1e-12 <= fids[2] + 1e-11
        assert fids[2] > 1 - 1e-8

    def test_error_growth_profile_monotone_gates(self):
        circ = qft(8)
        points = error_growth_profile(circ, cfg(1e-6), checkpoints=[5, 20, len(circ)])
        assert [p.gates_executed for p in points] == [5, 20, len(circ)]
        for p in points:
            assert p.comparison.fidelity > 0.999

    def test_fidelity_floor_holds_end_to_end(self):
        circ = get_workload("qaoa", 8)
        ref = DenseSimulator().run(circ).data
        eb = 1e-6
        res = MemQSim(cfg(eb)).run(circ)
        f = compare_states(ref, res.statevector()).fidelity
        # One recompression per stage pass; floor with that budget must hold.
        budget = eb * (res.plan.num_stages + 1)
        assert f >= fidelity_floor(budget, 1 << 8) - 1e-9


class TestMemoryClaims:
    def test_structured_states_use_less_than_dense(self):
        res = MemQSim(cfg(1e-6, chunk=4)).run(get_workload("ghz", 10))
        assert res.tracker.peak("chunk_store") < res.dense_bytes

    def test_device_peak_bounded_by_spec(self):
        c = cfg(1e-6, chunk=4)
        res = MemQSim(c).run(get_workload("qft", 10))
        assert res.peak_device_bytes <= c.device.memory_bytes

    def test_host_buffers_bounded_by_pool(self):
        c = cfg(1e-6, chunk=4)
        res = MemQSim(c).run(get_workload("random", 9))
        max_group = res.plan.max_group_size
        pool_bytes = STAGING_BUFFERS * ((1 << 4) << max_group) * 16
        assert res.tracker.peak("host_buffers") <= pool_bytes

    def test_compression_ratio_workload_ordering(self):
        # GHZ (2 nonzeros) must compress far better than supremacy (random).
        r_ghz = MemQSim(cfg()).run(get_workload("ghz", 9)).compression_ratio
        r_sup = MemQSim(cfg()).run(get_workload("supremacy", 9)).compression_ratio
        # The margin was 5x while most supremacy chunks tripped szlike's
        # bound check by one ulp (half-lattice ties) and were stored as
        # zlib-of-raw-floats: r_sup 1.32. With the shrunk quantisation
        # step they stay on the lossy path (r_sup 1.58, r_ghz 7.43
        # unchanged), so the honest gap at n=9, chunk 4 is 4.7x.
        assert r_ghz > 3 * r_sup
