"""Fused-vs-unfused equivalence, per backend and end to end.

Fusion reorders floating-point arithmetic (a folded 2x2 product is not
the same op sequence), so fused-vs-unfused comparisons use ``allclose``
at tight tolerance. Determinism *within* one compiled plan is absolute:
the parallel-vs-serial harness must stay bit-identical with fusion on,
because every worker count executes the identical lowered ops.
"""

import numpy as np
import pytest

from repro.circuits import WORKLOADS as CIRCUIT_REGISTRY
from repro.circuits import get_workload
from repro.compile import (MAX_WINDOW_QUBITS, FusedOp,
                           compile_gates, compile_stages)
from repro.core import (EinsumBackend, MemQSim, MemQSimConfig,
                        NumpyKernelBackend)
from repro.parallel import run_equivalence
from repro.pipeline import plan_stages
from repro.statevector import DenseSimulator
from tests.compile.caps import window_cap
from tests.pipeline.test_scheduler import build_rig

WORKLOADS = ["qft", "grover", "qaoa"]
BACKENDS = {"numpy": NumpyKernelBackend, "einsum": EinsumBackend}


def random_state(n, seed=3):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_fused_matches_unfused(self, backend, workload):
        n = 6
        circ = get_workload(workload, n)
        ops, stats = compile_gates(circ.gates, fusion=True)
        assert stats["ops_out"] < stats["gates_in"]
        be = BACKENDS[backend]()
        ref = random_state(n)
        fused = ref.copy()
        be.apply(ref, circ.gates)
        be.apply_ops(fused, ops)
        np.testing.assert_allclose(fused, ref, atol=1e-10)

    def test_backends_agree_on_fused_ops(self):
        n = 6
        circ = get_workload("qft", n)
        ops, _ = compile_gates(circ.gates, fusion=True)
        a = random_state(n)
        b = a.copy()
        NumpyKernelBackend().apply_ops(a, ops)
        EinsumBackend().apply_ops(b, ops)
        np.testing.assert_allclose(a, b, atol=1e-10)


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_memqsim_fused_matches_unfused(self, workload):
        circ = get_workload(workload, 8)
        base = MemQSimConfig(chunk_qubits=4, compressor="zlib")
        plain = MemQSim(base).run(circ)
        fused = MemQSim(base.with_updates(fuse_gates=True)).run(circ)
        assert fused.compile_report.ops_out < plain.compile_report.gates_in
        assert (fused.scheduler_stats.gates_applied
                < plain.scheduler_stats.gates_applied)
        np.testing.assert_allclose(fused.statevector(), plain.statevector(),
                                   atol=1e-10)

    def test_einsum_backend_runs_fused_pipeline(self):
        circ = get_workload("qft", 7)
        lay, store, sched = build_rig(7, 4, backend=EinsumBackend())
        plan = compile_stages(plan_stages(circ, lay, 2), lay, fusion=True)
        assert plan.report.ops_out < plan.report.gates_in
        sched.run(plan.stages)
        np.testing.assert_allclose(store.to_statevector(),
                                   DenseSimulator().run(circ).data,
                                   atol=1e-10)


class TestParallelBitIdentityWithFusion:
    def test_run_equivalence_fusion_on(self):
        """Pool-less and pooled runs consume one compiled plan:
        bit-identical states and identical blobs, fusion included."""
        rep = run_equivalence(get_workload("qft", 8), workers=2,
                              chunk_qubits=4, compressor="zlib",
                              fuse_gates=True)
        assert rep.ok, rep.summary()
        assert rep.state_max_abs_diff == 0.0

    def test_run_equivalence_fusion_on_lossy_codec(self):
        rep = run_equivalence(get_workload("grover", 8), workers=2,
                              chunk_qubits=4, compressor="szlike",
                              compressor_options={"error_bound": 1e-6},
                              fuse_gates=True)
        assert rep.ok, rep.summary()


class TestFusedOpsAreUnitary:
    """``FusedOp.to_gate()`` builds its ``Gate`` without ``make_gate``'s
    ``is_unitary`` (the payload is a product of validated unitaries, and
    re-checking it cost 0.8 ms per bound plan); this is the check, made
    once here instead of on every lowering."""

    @pytest.mark.parametrize("width", [2, 3, 4, 5, "model"])
    @pytest.mark.parametrize("workload", sorted(CIRCUIT_REGISTRY))
    def test_every_fused_op_of_the_registry(self, workload, width):
        # windows up to ``width`` qubits, or as the launch-cost model
        # prices them
        circ = get_workload(workload, 8)
        kw = {} if width == "model" else {"pricing": window_cap(width)}
        ops, _ = compile_gates(circ.gates, fusion=True, **kw)
        widest = max((len(op.qubits) for op in ops
                      if isinstance(op, FusedOp) and op.matrix is not None),
                     default=0)
        assert widest <= (MAX_WINDOW_QUBITS if width == "model" else width)
        fused = [op for op in ops if isinstance(op, FusedOp)]
        for op in fused:
            gate = op.to_gate()
            assert gate.qubits == op.qubits
            body = gate.diag if gate.diag is not None else gate.matrix
            assert body.dtype == np.complex128
            assert body.flags.c_contiguous and not body.flags.writeable
            if gate.diag is not None:
                assert body.shape == (1 << len(op.qubits),)
                assert np.abs(np.abs(body) - 1.0).max() <= 1e-12
            else:
                dim = 1 << len(op.qubits)
                assert body.shape == (dim, dim)
                assert np.abs(body @ body.conj().T - np.eye(dim)).max() <= 1e-12
        if workload in ("qft", "vqe", "supremacy"):  # not vacuous
            assert fused
