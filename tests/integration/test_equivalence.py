"""Integration: MEMQSim (lossless) must be bit-identical to the dense
baseline across the full workload suite and a grid of configurations.

This is the system's master correctness matrix: every combination exercises
the planner, the chunk-group executor, diagonal restriction, permutation
stages, buffer staging, and the codec round-trip together.
"""

import numpy as np
import pytest

from repro.circuits import WORKLOADS, get_workload
from repro.compile import compile_stages
from repro.core import EinsumBackend, MemQSim, MemQSimConfig
from repro.device import DeviceSpec, HostSpec, make_strategy
from repro.pipeline import plan_stages
from repro.statevector import DenseSimulator
from tests.pipeline.test_scheduler import build_rig

N = 8


@pytest.fixture(scope="module")
def references():
    dense = DenseSimulator()
    return {name: dense.run(get_workload(name, N)).data for name in WORKLOADS}


def tight(chunk_qubits, **kw):
    return MemQSimConfig(
        chunk_qubits=chunk_qubits,
        compressor="zlib",
        device=DeviceSpec(memory_bytes=(1 << (chunk_qubits + 1)) * 16 * 2),
        host=HostSpec(memory_bytes=1 << 26),
        **kw,
    )


class TestLosslessEquivalence:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("chunk_qubits", [3, 5])
    def test_workload_grid(self, references, workload, chunk_qubits):
        circ = get_workload(workload, N)
        got = MemQSim(tight(chunk_qubits)).run(circ).statevector()
        assert np.allclose(got, references[workload], atol=1e-12), workload

    @pytest.mark.parametrize("transfer", ["sync", "buffer"])
    def test_transfer_strategies(self, references, transfer):
        # a run always copies synchronously; Table 1's buffered strategy
        # must carry a streamed plan just as exactly
        circ = get_workload("random", N)
        lay, store, sched = build_rig(
            N, 4, transfer=make_strategy(transfer, max_elements=1 << 6))
        sched.run(compile_stages(plan_stages(circ, lay, 2), lay).stages)
        assert np.allclose(store.to_statevector(), references["random"],
                           atol=1e-12)

    def test_permutations_disabled_same_result(self, references):
        circ = get_workload("grover", N)
        got = MemQSim(tight(4, enable_permutation_stages=False)).run(circ).statevector()
        assert np.allclose(got, references["grover"], atol=1e-12)

    def test_einsum_backend(self, references):
        # the einsum oracle runs the planned, compiled, streamed stages
        circ = get_workload("supremacy", N)
        lay, store, sched = build_rig(N, 4, backend=EinsumBackend())
        sched.run(compile_stages(plan_stages(circ, lay, 2), lay).stages)
        assert np.allclose(store.to_statevector(), references["supremacy"],
                           atol=1e-10)

    @pytest.mark.parametrize("codec", ["lzma", "bz2", "null"])
    def test_other_lossless_codecs(self, references, codec):
        circ = get_workload("vqe", N)
        cfg = tight(4).with_updates(compressor=codec)
        got = MemQSim(cfg).run(circ).statevector()
        assert np.allclose(got, references["vqe"], atol=1e-12)

    def test_chunk_equals_vector(self, references):
        # Degenerate single-chunk case: everything is local.
        cfg = MemQSimConfig(chunk_qubits=N, compressor="zlib",
                            device=DeviceSpec(memory_bytes=(1 << N) * 16 * 4))
        got = MemQSim(cfg).run(get_workload("qft", N)).statevector()
        assert np.allclose(got, references["qft"], atol=1e-12)


class TestLossyEquivalence:
    @pytest.mark.parametrize("workload", ["ghz", "qft", "grover", "supremacy"])
    def test_high_fidelity_at_tight_bound(self, references, workload):
        circ = get_workload(workload, N)
        cfg = tight(4).with_updates(
            compressor="szlike", compressor_options={"error_bound": 1e-9}
        )
        res = MemQSim(cfg).run(circ)
        f = res.fidelity_vs(references[workload])
        assert f > 1 - 1e-6, workload
