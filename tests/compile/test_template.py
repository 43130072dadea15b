"""Plan templates: lowered once per circuit shape, bound per circuit.

A plan bound to a circuit must not depend on which circuit of that shape
the template was lowered from — to the bit, for every family, fusion
setting and layout — and ``MemQSim`` must report which of the three paths
(miss, rebound, hit) a run took.
"""

import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import networkx as nx
import numpy as np
import pytest

from repro.circuits import (WORKLOADS, Circuit, get_workload, qaoa_maxcut,
                            trotter_ising, vqe_ansatz)
from repro.circuits.gates import Gate
from repro.compile import CompiledGateStage, compile_stages
from repro.compile.template import WindowRecipe
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec
from repro.memory import ChunkLayout
from repro.observables import ising_hamiltonian
from repro.pipeline import plan_stages
from repro.variational import GradientDescent

N = 8
GRAPH = nx.random_regular_graph(3, N, seed=5)


def vqe(rng):
    return vqe_ansatz(N, layers=2, params=rng.uniform(0, 2 * math.pi, 4 * N))


def qaoa(rng):
    return qaoa_maxcut(GRAPH, p=2, gammas=rng.uniform(0, 1, 2),
                       betas=rng.uniform(0, 1, 2))


def trotter(rng):
    return trotter_ising(N, steps=3, dt=float(rng.uniform(0.05, 0.3)),
                         g=float(rng.uniform(0.2, 0.9)))


FAMILIES = {"vqe": vqe, "qaoa": qaoa, "trotter": trotter}
#: (chunk_qubits, max group qubits): everything local, one global qubit
#: per stage, two per stage
LAYOUTS = [(N, 0), (5, 1), (3, 2)]


def ops_of(plan):
    return [op for stage in plan.stages
            if isinstance(stage, CompiledGateStage) for op in stage.ops]


def payloads(plan):
    """``(name, qubits, operator)`` of every op in a compiled plan."""
    out = []
    for op in ops_of(plan):
        gate = op.to_gate()
        out.append((op.name, op.qubits,
                    gate.diag if gate.diag is not None else gate.matrix))
    return out


def assert_same_plan(a, b):
    a, b = payloads(a), payloads(b)
    assert [(name, qubits) for name, qubits, _ in a] == \
        [(name, qubits) for name, qubits, _ in b]
    for (_, _, x), (_, _, y) in zip(a, b):
        assert np.array_equal(x, y)


def cold_compile(circuit, layout, cap, fusion):
    return compile_stages(plan_stages(circuit, layout, cap), layout,
                          fusion=fusion, gates=circuit.gates)


def config_for(chunk_qubits, cap, fusion):
    # A device that holds 2^cap chunks per (double-buffered) group.
    device = DeviceSpec(memory_bytes=2 * 16 << (chunk_qubits + cap))
    return MemQSimConfig(chunk_qubits=chunk_qubits, compressor="zlib",
                         fuse_gates=fusion, device=device)


@pytest.mark.parametrize("chunk_qubits, cap", LAYOUTS)
@pytest.mark.parametrize("fusion", [False, True])
@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestReboundEqualsCold:
    def test_ops_are_bit_identical(self, family, fusion, chunk_qubits, cap):
        rng = np.random.default_rng(3)
        first, second = FAMILIES[family](rng), FAMILIES[family](rng)
        layout = ChunkLayout(N, chunk_qubits)
        template = cold_compile(first, layout, cap, fusion).template
        rebound = compile_stages(template, gates=second.gates)
        cold = cold_compile(second, layout, cap, fusion)
        assert_same_plan(rebound, cold)
        assert rebound.template is template
        for field in ("gates_in", "ops_out", "fused_1q", "merged_diagonals",
                      "fused_windows", "num_gate_stages", "fusion_ratio"):
            assert getattr(rebound.report, field) == \
                getattr(cold.report, field)

    def test_state_digest_warm_equals_cold(self, family, fusion,
                                           chunk_qubits, cap):
        rng = np.random.default_rng(4)
        first, second = FAMILIES[family](rng), FAMILIES[family](rng)
        cfg = config_for(chunk_qubits, cap, fusion)
        sim = MemQSim(cfg)
        assert sim.run(first).config_echo["plan_cache"] == "miss"
        warm = sim.run(second)
        cold = MemQSim(cfg).run(second)
        assert warm.config_echo["plan_cache"] == "rebound"
        assert cold.config_echo["plan_cache"] == "miss"
        assert warm.state_digest() == cold.state_digest()
        assert warm.plan == cold.plan


def edge_case_circuit(a, b, c, d):
    """Rotations whose matrices are numerically diagonal (or not even a
    rotation) at the angles 0, pi and 2 pi, around entanglers; with
    fusion it folds, merges and fuses."""
    circuit = Circuit(4)
    circuit.ry(a, 0).rz(b, 0).rx(c, 1).p(d, 1)
    circuit.cp(a, 0, 1).crz(b, 1, 2).rzz(c, 2, 3)
    circuit.ry(d, 2).cx(2, 3).rx(a, 3).cp(b, 3, 0).crz(c, 0, 2)
    return circuit


EDGE_ANGLES = [(0.0, 0.0, 0.0, 0.0), (math.pi,) * 4, (2 * math.pi,) * 4,
               (0.0, math.pi, 2 * math.pi, -0.0)]


class TestValueEdgeCases:
    @pytest.mark.parametrize("angles", EDGE_ANGLES)
    @pytest.mark.parametrize("chunk_qubits, cap", [(4, 0), (2, 1)])
    def test_special_angles_bind_like_any_other(self, angles, chunk_qubits,
                                                cap):
        layout = ChunkLayout(4, chunk_qubits)
        generic = edge_case_circuit(0.3, 1.1, 2.3, 0.7)
        special = edge_case_circuit(*angles)
        from_generic = cold_compile(generic, layout, cap, True).template
        from_special = cold_compile(special, layout, cap, True).template
        cold = cold_compile(special, layout, cap, True)
        # Whichever circuit the decisions were taken on, the same ops.
        assert_same_plan(compile_stages(from_generic, gates=special.gates),
                         cold)
        assert_same_plan(compile_stages(from_special, gates=generic.gates),
                         cold_compile(generic, layout, cap, True))

    def test_cp_and_crz_stay_diagonal(self):
        # At angle 0 ``cp`` / ``crz`` are the identity and at 2 pi ``ry``
        # is minus the identity: nothing is decided from that. Diagonal by
        # name stays a stored diagonal, everything else stays dense.
        layout = ChunkLayout(4, 2)
        kinds = set()
        for angles in EDGE_ANGLES + [(0.3, 1.1, 2.3, 0.7)]:
            plan = cold_compile(edge_case_circuit(*angles), layout, 1, True)
            kinds.add(tuple((op.qubits, op.diag is not None)
                            for op in ops_of(plan)))
            assert any(op.diag is not None and len(op.qubits) > 1
                       for op in ops_of(plan))
        assert len(kinds) == 1

    def test_hit_is_bitwise_on_values(self):
        sim = MemQSim(chunk_qubits=2, compressor="zlib")
        echo = [sim.run(Circuit(3).rz(angle, 0).h(1)).config_echo["plan_cache"]
                for angle in (0.0, 0.0, -0.0, -0.0)]
        assert echo == ["miss", "hit", "rebound", "hit"]


def reangled(circuit, angles):
    """``circuit`` with every parameter of a named gate replaced, cycling
    through ``angles``; gates given by an explicit operator stay as they
    are."""
    it = itertools.cycle(angles)
    gates = [g if g.spec is None or not g.params
             else Gate(g.name, g.qubits, tuple(next(it) for _ in g.params))
             for g in circuit.gates]
    return Circuit(circuit.num_qubits, gates)


def embedded(part, gates, window):
    """``part``'s operator on the window's qubits: ``I (x) A`` by
    ``np.kron``, conjugated by the permutation that puts the part's qubits
    lowest, in its order."""
    a = part.matrix(gates)
    p, k = part.num_qubits, len(window)
    pos = [window.index(q) for q in part.qubits]
    order = pos + [i for i in range(k) if i not in pos]
    full = np.kron(np.eye(1 << (k - p)), a)
    perm = np.zeros((1 << k, 1 << k))
    for u in range(1 << k):
        v = sum(((u >> b) & 1) << i for i, b in enumerate(order))
        perm[v, u] = 1.0
    return perm.T @ full @ perm


class TestBindingIsItsOwnArithmetic:
    """Binding a fused window is small-matrix arithmetic of the compile
    layer: no statevector kernel runs, so the dense comparator's kernels
    can never move a bound plan (or be moved for one)."""

    @pytest.fixture
    def kernels_raise(self, monkeypatch):
        from repro.statevector import kernels

        def refuse(*args, **kwargs):
            raise AssertionError("a statevector kernel ran during a bind")

        originals = {id(getattr(kernels, name)) for name in kernels.__all__}
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for attr, value in list(vars(module).items()):
                    if id(value) in originals:
                        monkeypatch.setattr(module, attr, refuse)

    @pytest.mark.parametrize("chunk_qubits, cap", [(6, 0), (3, 1)])
    @pytest.mark.parametrize("family", sorted(WORKLOADS))
    def test_every_window_is_the_product_of_its_parts(
            self, kernels_raise, family, chunk_qubits, cap):
        rng = np.random.default_rng(sorted(WORKLOADS).index(family))
        circuit = get_workload(family, 6)
        layout = ChunkLayout(6, chunk_qubits)
        template = cold_compile(reangled(circuit, rng.uniform(0, 7, 8)),
                                layout, cap, True).template
        windows = [r for stage in template.stages
                   for r in getattr(stage, "recipes", ())
                   if isinstance(r, WindowRecipe)]
        assert windows or family in ("ghz", "grover", "bv")
        for angles in [rng.uniform(-7, 7, 8)] + EDGE_ANGLES:
            gates = reangled(circuit, angles).gates
            compile_stages(template, gates=gates)
            for window in windows:
                want = np.eye(1 << window.num_qubits)
                for part in window.parts:
                    want = embedded(part, gates, window.qubits) @ want
                np.testing.assert_allclose(window.value(gates), want,
                                           rtol=0, atol=1e-13)


def test_sixteen_threads_binding_one_template_get_equal_plans():
    rng = np.random.default_rng(9)
    layout = ChunkLayout(N, 5)
    template = cold_compile(vqe(rng), layout, 1, True).template
    circuits = [vqe(rng) for _ in range(4)]
    serial = [compile_stages(template, gates=c.gates) for c in circuits]

    def bind(i):
        return i % 4, compile_stages(template, gates=circuits[i % 4].gates)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            futures = [pool.submit(bind, i) for i in range(64)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 64
    for which, plan in results:
        assert_same_plan(plan, serial[which])


class TestMemQSimReportsThePath:
    def test_miss_rebound_hit_and_the_report(self):
        rng = np.random.default_rng(11)
        sim = MemQSim(config_for(5, 1, True))
        first, second = vqe(rng), vqe(rng)
        runs = [sim.run(first), sim.run(second), sim.run(second)]
        assert [r.config_echo["plan_cache"] for r in runs] == \
            ["miss", "rebound", "hit"]
        reports = [r.compile_report for r in runs]
        assert reports[0].seconds > 0 and reports[1].seconds > 0
        assert reports[2].seconds == 0.0
        for report in reports[1:]:
            assert (report.gates_in, report.ops_out, report.fusion_ratio) == \
                (reports[0].gates_in, reports[0].ops_out,
                 reports[0].fusion_ratio)
        assert sim.plan_cache.stats()["misses"] == 1
        assert sim.plan_cache.stats()["rebinds"] == 1
        assert sim.plan_cache.stats()["hits"] == 1
        # The stages a result carries are the ones bound to its circuit.
        assert_same_plan(
            type("Plan", (), {"stages": runs[1].compiled_stages}),
            cold_compile(second, ChunkLayout(N, 5), 1, True))
        assert runs[2].state_digest() == runs[1].state_digest()

    def test_gradient_descent_energies_with_one_miss(self):
        """A descent on one simulator compiles once and rebinds ever after,
        and reads the energies a fresh simulator per run reads."""
        cfg = MemQSimConfig(chunk_qubits=2, compressor="zlib",
                            fuse_gates=True,
                            device=DeviceSpec(memory_bytes=1 << 8))
        hamiltonian = ising_hamiltonian(4, 1.0, 0.6)

        def build(params):
            return vqe_ansatz(4, layers=1, params=params)

        class FreshSimulatorPerRun:
            @staticmethod
            def run(circuit):
                return MemQSim(cfg).run(circuit)

        start = np.random.default_rng(2).uniform(0, 2 * math.pi, 8)
        driver = GradientDescent(learning_rate=0.2, max_iterations=3,
                                 tolerance=0.0)
        sim = MemQSim(cfg)
        warm = driver.minimize(build, start, hamiltonian, sim)
        cold = driver.minimize(build, start, hamiltonian,
                               FreshSimulatorPerRun)
        np.testing.assert_allclose(warm.history, cold.history, rtol=0,
                                   atol=1e-12)
        stats = sim.plan_cache.stats()
        runs = 1 + 3 * (2 * 8 + 1)  # start, then per step: shifts + energy
        assert (stats["misses"], stats["rebinds"], stats["hits"]) == \
            (1, runs - 1, 0)
