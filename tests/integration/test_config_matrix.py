"""Config-interaction matrix: every feature combination must stay exact.

Cache, fusion, permutation stages and the disk store each reroute the
same chunk traffic through different code paths; this matrix asserts
that *any* combination still reproduces the dense baseline bit-for-bit
(lossless codec), plus a lossy + everything-on smoke check against the
fidelity floor.
"""

import itertools

import numpy as np
import pytest

from repro.circuits import get_workload, random_circuit
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec, HostSpec
from repro.statevector import DenseSimulator

N = 9
CIRCUIT = random_circuit(N, 60, seed=99)
REF = DenseSimulator().run(CIRCUIT).data


def base_config(**kw) -> MemQSimConfig:
    defaults = dict(
        chunk_qubits=4,
        compressor="zlib",
        device=DeviceSpec(memory_bytes=(1 << 6) * 16 * 2),
        host=HostSpec(memory_bytes=1 << 26),
    )
    defaults.update(kw)
    return MemQSimConfig(**defaults)


# Each axis toggles one feature; the matrix covers all pairs (and a few
# triples through the cartesian product of the binary axes).
AXES = {
    "cache_chunks": [0, 8],
    "fuse_gates": [False, True],
}


def matrix():
    keys = list(AXES)
    for combo in itertools.product(*(AXES[k] for k in keys)):
        yield dict(zip(keys, combo))


class TestConfigMatrix:
    @pytest.mark.parametrize(
        "overrides", list(matrix()),
        ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_all_combinations_match_dense(self, overrides):
        cfg = base_config(**overrides)
        got = MemQSim(cfg).run(CIRCUIT).statevector()
        assert np.allclose(got, REF, atol=1e-12), overrides

    def test_disk_store_with_cache_and_fusion(self, tmp_path):
        cfg = base_config(
            disk_path=str(tmp_path / "m.log"),
            cache_chunks=8, fuse_gates=True,
        )
        res = MemQSim(cfg).run(CIRCUIT)
        assert np.allclose(res.statevector(), REF, atol=1e-12)
        res.store.close()

    def test_permutations_off_with_everything_on(self):
        cfg = base_config(
            enable_permutation_stages=False, cache_chunks=8,
            fuse_gates=True,
        )
        got = MemQSim(cfg).run(CIRCUIT).statevector()
        assert np.allclose(got, REF, atol=1e-12)

    def test_lossy_with_everything_on(self):
        from repro.compression import fidelity_floor

        cfg = base_config(
            compressor="szlike",
            compressor_options={"error_bound": 1e-8},
            cache_chunks=8, fuse_gates=True,
        )
        res = MemQSim(cfg).run(CIRCUIT)
        f = res.fidelity_vs(REF)
        budget = 1e-8 * (res.plan.num_stages + 1)
        assert f >= fidelity_floor(budget, 1 << N) - 1e-9

    @pytest.mark.parametrize("workload", ["qft", "grover", "supremacy"])
    def test_everything_on_across_workloads(self, workload):
        circ = get_workload(workload, 8)
        ref = DenseSimulator().run(circ).data
        cfg = base_config(
            cache_chunks=6, fuse_gates=True,
        )
        got = MemQSim(cfg).run(circ).statevector()
        assert np.allclose(got, ref, atol=1e-12), workload
