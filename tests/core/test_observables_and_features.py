"""Tests for observables, product-state init, mid-circuit measurement on the
compressed store, multi-device execution, and the circuit drawer."""

import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro.circuits import Circuit, draw, ghz, qaoa_maxcut, random_circuit, vqe_ansatz
from repro.compression import get_compressor
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec
from repro.memory import ChunkLayout, CompressedChunkStore, MemoryTracker
from repro.observables import (
    PauliSum,
    heisenberg_hamiltonian,
    ising_hamiltonian,
    maxcut_hamiltonian,
)
from repro.statevector import DenseSimulator, StateVector


def cfg(chunk=4):
    return MemQSimConfig(chunk_qubits=chunk, compressor="zlib",
                         device=DeviceSpec(memory_bytes=1 << 13))


class TestPauliSum:
    def test_matrix_matches_terms(self):
        h = PauliSum().add(0.5, "ZZ", (0, 1)).add(-0.25, "X", (0,))
        h.constant = 1.0
        m = h.to_matrix(2)
        z = np.diag([1, -1]).astype(complex)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        want = (1.0 * np.eye(4) + 0.5 * np.kron(z, z)
                - 0.25 * np.kron(np.eye(2), x))
        assert np.allclose(m, want)

    def test_dense_expectation_matches_matrix(self, rng):
        h = ising_hamiltonian(4, j=0.7, g=0.3)
        sv = StateVector.random_state(4, seed=3)
        want = float(np.real(np.vdot(sv.data, h.to_matrix(4) @ sv.data)))
        assert h.expectation_dense(sv) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("ham_fn", [
        lambda: ising_hamiltonian(8, 1.0, 0.5),
        lambda: heisenberg_hamiltonian(8),
    ])
    def test_chunked_matches_dense(self, ham_fn):
        h = ham_fn()
        circ = vqe_ansatz(8, layers=2, seed=5)
        ref = DenseSimulator().run(circ)
        res = MemQSim(cfg()).run(circ)
        assert h.expectation_chunked(res) == pytest.approx(
            h.expectation_dense(ref), abs=1e-9
        )

    @pytest.mark.parametrize("chunk", [
        8,  # every X-mask pairs amplitudes inside the one chunk
        5,  # mixed: some inside a chunk, some across, some both
        1,  # nearly every X-mask reaches a partner chunk
    ])
    @pytest.mark.parametrize("ham_fn", [
        lambda: ising_hamiltonian(8, 1.0, 0.7),
        lambda: heisenberg_hamiltonian(8, 1.0, 0.8, 0.6),
        lambda: maxcut_hamiltonian(__import__("networkx").cycle_graph(8)),
        # bare identity, Y next to Z, and two strings sharing an X-mask
        lambda: PauliSum(constant=0.25).add(1.5, "I", (0,))
        .add(0.3, "XYZ", (1, 6, 4)).add(0.2, "YY", (2, 7))
        .add(0.7, "ZY", (5, 3)).add(-0.4, "XZ", (3, 5)).add(0.1, "X", (3,)),
    ])
    def test_chunked_reduction_per_x_mask_matches_dense(self, ham_fn, chunk):
        h = ham_fn()
        circ = vqe_ansatz(8, layers=2, seed=11)
        ref = DenseSimulator().run(circ)
        res = MemQSim(cfg(chunk)).run(circ)
        assert h.expectation_chunked(res) == pytest.approx(
            h.expectation_dense(ref), abs=1e-12)

    def test_chunked_on_single_precision_store_accumulates_in_double(self):
        h = ising_hamiltonian(8, 1.0, 0.7)
        circ = vqe_ansatz(8, layers=2, seed=11)
        res = MemQSim(cfg(5).with_updates(precision="c64")).run(circ)
        dense = StateVector(8, res.statevector().astype(np.complex128))
        assert h.expectation_chunked(res) == pytest.approx(
            h.expectation_dense(dense), abs=1e-12)

    def test_expectation_dispatch(self):
        h = ising_hamiltonian(6)
        circ = ghz(6)
        ref = DenseSimulator().run(circ)
        res = MemQSim(cfg(3)).run(circ)
        assert h.expectation(res) == pytest.approx(h.expectation(ref), abs=1e-9)

    def test_maxcut_on_ghz(self):
        import networkx as nx

        g = nx.path_graph(6)
        h = maxcut_hamiltonian(g)
        # GHZ: all qubits perfectly correlated -> cut value 0.
        res = MemQSim(cfg(3)).run(ghz(6))
        assert h.expectation_chunked(res) == pytest.approx(0.0, abs=1e-9)

    def test_simplify_merges_terms(self):
        h = PauliSum().add(1.0, "ZZ", (0, 1)).add(0.5, "ZZ", (1, 0)).add(-1.5, "ZZ", (0, 1))
        s = h.simplified()
        assert len(s) == 0  # 1.0 + 0.5 - 1.5 (qubit-order canonicalized)

    def test_bad_term_rejected_eagerly(self):
        with pytest.raises(ValueError):
            PauliSum().add(1.0, "Q", (0,))

    def test_str_and_repr(self):
        h = ising_hamiltonian(3)
        assert "terms" in repr(h)
        assert "Z" in str(h)


class WatchedStore:
    """A store front that counts loads and how many loaded chunks the
    caller still holds (each load hands out its own copy)."""

    def __init__(self, store):
        self.store, self.layout = store, store.layout
        self.loads = self.live = self.peak = 0

    def load(self, chunk):
        self.loads += 1
        data = self.store.load(chunk).copy()
        self.live += 1
        self.peak = max(self.peak, self.live)
        weakref.finalize(data, self._freed)
        return data

    def _freed(self):
        self.live -= 1


def random_pauli_sum(n, chunk_qubits, seed):
    """Seeded X / Y / Z strings on local and global qubits, with mixed
    local + global X-masks among them."""
    g = np.random.default_rng(seed)
    h = PauliSum(constant=0.3)
    for _ in range(20):
        qubits = g.choice(n, size=int(g.integers(1, 5)), replace=False)
        h.add(float(g.normal()), "".join(g.choice(list("XYZ"), len(qubits))),
              tuple(int(q) for q in qubits))
    top = n - 1
    h.add(0.4, "XY", (0, top)).add(-0.6, "YXZ", (chunk_qubits - 1,
                                                   chunk_qubits, 1))
    return h


STREAMED = {
    "ising": lambda: ising_hamiltonian(8, 1.0, 0.7),
    "ising_periodic": lambda: ising_hamiltonian(8, 0.8, 0.4, periodic=True),
    "heisenberg": lambda: heisenberg_hamiltonian(8, 1.0, 0.8, 0.6),
    "maxcut": lambda: maxcut_hamiltonian(
        __import__("networkx").random_regular_graph(3, 8, seed=2)),
    "random": lambda: random_pauli_sum(8, 4, seed=7),
}
#: (precision, cache_chunks, host_store_mb): a bare store, a cache in
#: front, a tiered store that spills to its disk log
STORES = [("c128", 0, 0.0), ("c64", 0, 0.0), ("c128", 4, 0.0),
          ("c64", 4, 0.0), ("c128", 0, 1 / 4096), ("c64", 0, 1 / 4096)]


class TestStreamedQuery:
    """``expectation_chunked`` reads every partner pair of chunks once and
    holds at most ``1 +`` (distinct global X parts) chunks at a time."""

    @staticmethod
    def expected(h, cq, num_chunks):
        partners = {t.parsed().x_mask >> cq for t in h} - {0}
        return num_chunks + len(partners) * num_chunks // 2, 1 + len(partners)

    @pytest.mark.parametrize("precision, cache, host_mb", STORES)
    @pytest.mark.parametrize("name", sorted(STREAMED))
    def test_matches_dense_reading_each_pair_once(self, name, precision,
                                                  cache, host_mb):
        h = STREAMED[name]()
        res = MemQSim(cfg(4).with_updates(
            precision=precision, cache_chunks=cache,
            host_store_mb=host_mb)).run(vqe_ansatz(8, layers=2, seed=11))
        try:
            state = StateVector(8, res.statevector().astype(np.complex128))
            watched = WatchedStore(res.store)
            got = h.expectation_chunked(
                SimpleNamespace(store=watched, num_qubits=8))
            assert got == pytest.approx(h.expectation_dense(state),
                                        abs=1e-12)
            loads, live = self.expected(h, 4, 16)
            assert watched.loads == loads
            # a single-precision chunk is widened to a copy, so the loaded
            # one is dropped at once
            if precision == "c128":
                assert watched.peak == live
            assert watched.peak <= live
            tiered = getattr(res.store, "tier_stats", None)
            assert (tiered is not None and tiered.spills > 0) == \
                (host_mb > 0)
        finally:
            if host_mb > 0:
                res.store.close()

    def test_the_sweep_hamiltonian_reads_48_chunks(self):
        res = MemQSim(chunk_qubits=6, compressor="zlib").run(
            vqe_ansatz(10, layers=3, seed=3))
        watched = WatchedStore(res.store)
        h = ising_hamiltonian(10, 1.0, 0.7)
        got = h.expectation_chunked(
            SimpleNamespace(store=watched, num_qubits=10))
        assert (watched.loads, watched.peak) == (48, 5)
        want = h.expectation_dense(StateVector(10, res.statevector()))
        assert got == pytest.approx(want, abs=1e-12)

    def test_tables_are_reused_and_rebuilt_after_add(self):
        res = MemQSim(cfg(4)).run(vqe_ansatz(8, layers=2, seed=11))
        state = StateVector(8, res.statevector())
        h = ising_hamiltonian(8, 1.0, 0.7)
        first = h.expectation_chunked(res)
        tables = h._tables
        assert h.expectation_chunked(res) == first
        assert h._tables is tables
        h.add(0.5, "XY", (1, 6))
        assert h.expectation_chunked(res) == pytest.approx(
            h.expectation_dense(state), abs=1e-12)
        assert h._tables is not tables
        # another layout of the same terms builds its own
        rebuilt = h._tables
        other = MemQSim(cfg(5)).run(vqe_ansatz(8, layers=2, seed=11))
        h.expectation_chunked(other)
        assert h._tables is not rebuilt

    def test_a_term_outside_the_state_is_refused(self):
        res = MemQSim(cfg(4)).run(vqe_ansatz(8, layers=1, seed=1))
        with pytest.raises(ValueError, match="outside the state"):
            PauliSum().add(1.0, "Z", (8,)).expectation_chunked(res)


class TestProductStateInit:
    def test_matches_dense_kron(self, rng):
        lay = ChunkLayout(6, 3)
        store = CompressedChunkStore(lay, get_compressor("zlib"), MemoryTracker())
        factors = []
        for q in range(6):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            factors.append(v / np.linalg.norm(v))
        store.init_product_state(factors)
        want = np.ones(1, dtype=complex)
        for q in reversed(range(6)):
            want = np.kron(want, factors[q])
        assert np.allclose(store.to_statevector(), want, atol=1e-12)

    def test_basis_factor_interns_zero_chunks(self):
        lay = ChunkLayout(8, 3)
        store = CompressedChunkStore(lay, get_compressor("zlib"), MemoryTracker())
        factors = [np.array([1.0, 0.0])] * 8
        store.init_product_state(factors)
        # only chunk 0 is nonzero; the rest share the interned zero blob
        assert store._zero_refs == lay.num_chunks - 1
        sv = store.to_statevector()
        assert sv[0] == 1.0 and np.count_nonzero(sv) == 1

    def test_plus_state_product(self):
        lay = ChunkLayout(5, 2)
        store = CompressedChunkStore(lay, get_compressor("zlib"), MemoryTracker())
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        store.init_product_state([plus] * 5)
        assert np.allclose(store.to_statevector(), 1 / np.sqrt(32), atol=1e-12)

    def test_validation(self):
        lay = ChunkLayout(4, 2)
        store = CompressedChunkStore(lay, get_compressor("zlib"), MemoryTracker())
        with pytest.raises(ValueError):
            store.init_product_state([np.array([1.0, 0.0])] * 3)
        with pytest.raises(ValueError):
            store.init_product_state([np.array([1.0, 1.0])] * 4)  # unnormalized


class TestChunkedMeasurement:
    def test_ghz_collapse_local_qubit(self):
        res = MemQSim(cfg(4)).run(ghz(8))
        bit = res.measure_qubit(0, np.random.default_rng(1))
        sv = res.statevector()
        expect = (1 << 8) - 1 if bit else 0
        assert abs(sv[expect]) == pytest.approx(1.0, abs=1e-9)

    def test_ghz_collapse_global_qubit(self):
        res = MemQSim(cfg(4)).run(ghz(8))
        bit = res.measure_qubit(7, np.random.default_rng(2))
        sv = res.statevector()
        expect = (1 << 8) - 1 if bit else 0
        assert abs(sv[expect]) == pytest.approx(1.0, abs=1e-9)

    def test_global_collapse_zeroes_chunks_cheaply(self):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        res = MemQSim(cfg(4), telemetry=tel).run(ghz(8))

        def stores():
            return tel.traffic.totals()["codec.raw_in"]["ops"]

        before = stores()
        res.measure_qubit(7, np.random.default_rng(3))
        # Half the chunks were zeroed via the interned blob: only the kept
        # half got recompressed.
        assert stores() - before <= res.store.layout.num_chunks // 2
        assert res.store._zero_refs >= res.store.layout.num_chunks // 2

    def test_statistics_match_born_rule(self):
        ones = 0
        for seed in range(60):
            res = MemQSim(cfg(3)).run(ghz(6))
            ones += res.measure_qubit(3, np.random.default_rng(seed))
        assert 15 <= ones <= 45

    def test_norm_preserved_after_collapse(self):
        circ = random_circuit(8, 40, seed=9)
        res = MemQSim(cfg(4)).run(circ)
        res.measure_qubit(5, np.random.default_rng(4))
        assert res.norm() == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_distribution_after_collapse(self):
        circ = random_circuit(7, 30, seed=10)
        res = MemQSim(MemQSimConfig(chunk_qubits=3, compressor="zlib",
                                    device=DeviceSpec(memory_bytes=1 << 12))).run(circ)
        dense_sv = DenseSimulator().run(circ)
        # force the same outcome on both paths
        from repro.statevector import measure_qubit as dense_measure

        bit = res.measure_qubit(6, np.random.default_rng(5))
        got_dense = dense_measure(dense_sv, 6, np.random.default_rng(5))
        assert bit == got_dense
        assert np.allclose(res.statevector(), dense_sv.data, atol=1e-9)

    def test_out_of_range(self):
        res = MemQSim(cfg(3)).run(ghz(6))
        with pytest.raises(ValueError):
            res.measure_qubit(6)


class TestDrawer:
    def test_wire_count(self):
        art = draw(ghz(4))
        assert art.count("q0:") == 1 and art.count("q3:") == 1

    def test_gate_symbols(self):
        art = draw(Circuit(2).h(0).cx(0, 1))
        assert "[H]" in art
        assert "o" in art and "[X]" in art

    def test_swap_symbols(self):
        art = draw(Circuit(3).swap(0, 2))
        assert art.count("x") >= 2
        assert "|" in art  # connector through the middle wire

    def test_parametric_label(self):
        art = draw(Circuit(1).rz(0.5, 0))
        assert "RZ(0.5)" in art

    def test_diagonal_and_unitary_labels(self):
        c = Circuit(2)
        c.diagonal(np.array([1, -1], dtype=complex), 0)
        c.unitary(np.eye(2, dtype=complex), 1)
        art = draw(c)
        assert "[DIAG]" in art and "[U]" in art

    def test_toffoli(self):
        art = draw(Circuit(3).ccx(0, 1, 2))
        assert art.count("o") == 2 and "[X]" in art

    def test_wrap(self):
        from repro.circuits import qft

        art = draw(qft(3), max_width=40)
        assert all(len(l) <= 40 for l in art.splitlines())
