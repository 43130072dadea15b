"""Unit tests for the MemQSim simulator facade."""

import numpy as np
import pytest

from repro.circuits import Circuit, get_workload, ghz, qft, random_circuit
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec
from repro.statevector import DenseSimulator, StateVector

from ..pipeline.test_planner import tilted_brickwork


class TestBasics:
    def test_default_config_runs(self):
        res = MemQSim().run(ghz(6))
        assert res.num_qubits == 6
        assert res.norm() == pytest.approx(1.0, abs=1e-3)

    def test_override_kwargs(self):
        sim = MemQSim(compressor="zlib", chunk_qubits=3)
        assert sim.config.compressor == "zlib"
        assert sim.config.chunk_qubits == 3

    def test_config_object(self):
        cfg = MemQSimConfig(compressor="zlib")
        sim = MemQSim(cfg)
        assert sim.config is cfg

    def test_repr(self):
        assert "szlike" in repr(MemQSim())


class TestCorrectness:
    def test_lossless_identical_to_dense(self, tight_config):
        c = random_circuit(9, 70, seed=13)
        ref = DenseSimulator().run(c).data
        got = MemQSim(tight_config).run(c).statevector()
        assert np.allclose(got, ref, atol=1e-12)

    def test_initial_state(self, tight_config):
        c = Circuit(8).cx(0, 1)
        init = StateVector.basis_state(8, 1)
        res = MemQSim(tight_config).run(c, initial_state=init)
        assert res.probability_of(3) == pytest.approx(1.0)

    def test_initial_state_size_checked(self, tight_config):
        with pytest.raises(ValueError):
            MemQSim(tight_config).run(Circuit(8).h(0), initial_state=StateVector(4))

    def test_lossy_fidelity_floor(self):
        from repro.compression import fidelity_floor

        c = qft(10)
        eb = 1e-6
        ref = DenseSimulator().run(c).data
        res = MemQSim(
            compressor="szlike",
            compressor_options={"error_bound": eb},
            chunk_qubits=5,
            device=DeviceSpec(memory_bytes=1 << 16),
        ).run(c)
        f = res.fidelity_vs(ref)
        # Each of the plan's recompressions can add eb; bound by stages+1.
        total_eb = eb * (res.plan.num_stages + 1)
        assert f >= fidelity_floor(total_eb, 1 << 10) - 1e-9

    def test_fidelity_vs_is_normalised(self):
        """A coarse bound lets the stored state's norm drift; the streamed
        overlap divides by both norms, as ``compare_states`` does on the
        densified vector, so it never reads above 1."""
        from repro.analysis import compare_states

        c = get_workload("supremacy", 10)
        ref = DenseSimulator().run(c).data
        res = MemQSim(
            compressor="szlike",
            compressor_options={"error_bound": 1e-3},
            chunk_qubits=5,
            device=DeviceSpec(memory_bytes=1 << 12),
        ).run(c)
        assert abs(res.norm() - 1.0) > 1e-6, "pick a run whose norm drifts"
        f = res.fidelity_vs(ref)
        assert f <= 1.0
        assert f == pytest.approx(
            compare_states(ref, res.statevector()).fidelity, abs=1e-12)
        # and scaling the reference changes nothing
        assert res.fidelity_vs(3.0 * ref) == pytest.approx(f, abs=1e-12)

    def test_host_budget_enforced(self):
        from repro.device import HostSpec

        cfg = MemQSimConfig(
            chunk_qubits=8,
            host=HostSpec(memory_bytes=1024),  # absurdly small
            device=DeviceSpec(memory_bytes=1 << 24),
        )
        with pytest.raises(MemoryError):
            MemQSim(cfg).run(ghz(10))


class TestResultQueries:
    @pytest.fixture
    def result(self, tight_config):
        return MemQSim(tight_config).run(ghz(8))

    def test_sample_streaming(self, result):
        counts = result.sample(500, seed=1)
        assert set(counts) <= {"0" * 8, "1" * 8}
        assert sum(counts.values()) == 500

    def test_sample_distribution(self, result):
        counts = result.sample(2000, seed=2)
        assert abs(counts.get("0" * 8, 0) - 1000) < 150

    def test_probability_of(self, result):
        assert result.probability_of(0) == pytest.approx(0.5, abs=1e-9)
        assert result.probability_of(255) == pytest.approx(0.5, abs=1e-9)
        assert result.probability_of(7) == pytest.approx(0.0, abs=1e-12)

    def test_amplitude(self, result):
        assert result.amplitude(0) == pytest.approx(1 / np.sqrt(2))

    def test_expectation_z_local_and_global(self, result):
        # GHZ: <Z_q> = 0 for every qubit.
        for q in (0, 7):
            assert result.expectation_z(q) == pytest.approx(0.0, abs=1e-9)

    def test_expectation_z_matches_dense(self, tight_config):
        c = random_circuit(8, 40, seed=17)
        res = MemQSim(tight_config).run(c)
        ref = DenseSimulator().run(c)
        for q in range(8):
            assert res.expectation_z(q) == pytest.approx(
                ref.expectation_pauli("Z", [q]), abs=1e-9
            )

    def test_chunk_masses_sum_to_one(self, result):
        assert result.chunk_probability_masses().sum() == pytest.approx(1.0, abs=1e-9)

    def test_report_renders(self, result):
        rep = result.report()
        assert "MEMQSim result" in rep
        assert "stage breakdown" in rep
        assert "ratio" in rep

    def test_pipeline_speedup_sane(self, result):
        # workers=1: every hop is a slice of the loop's own stopwatch
        assert result.serial_seconds <= result.online_seconds
        assert 0.0 < result.pipeline_speedup <= 1.0

    def test_online_seconds_is_the_stopwatch(self, tight_config):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        res = MemQSim(tight_config, telemetry=tel).run(qft(8))
        assert 0.0 < res.online_seconds <= res.wall_seconds
        out = res.to_dict()
        assert out["online_seconds"] == res.online_seconds
        assert "pipelined_seconds" not in out
        assert "online (stopwatch)" in res.report()
        assert tel.metrics.gauge("run.online.seconds").value \
            == res.online_seconds

    def test_memory_accounting_sane(self, result):
        assert result.peak_host_bytes > 0
        assert result.peak_device_bytes > 0
        assert result.dense_bytes == 256 * 16


class TestConvenience:
    def test_sample_facade(self, tight_config):
        counts = MemQSim(tight_config).sample(ghz(8), shots=100, seed=4)
        assert sum(counts.values()) == 100

    def test_statevector_facade(self, tight_config):
        sv = MemQSim(tight_config).statevector(ghz(8))
        assert sv.shape == (256,)


class TestDerivedChoices:
    """The store tier follows from the budgets and the stage engine from
    the codec pool; neither can be named."""

    @pytest.mark.parametrize("host_store_mb, with_path, store_cls, echo", [
        (0.0, False, "CompressedChunkStore", "memory"),
        (0.5, False, "TieredChunkStore", "tiered"),
        (0.5, True, "TieredChunkStore", "tiered"),
        (0.0, True, "TieredChunkStore", "tiered"),  # out of core
    ])
    def test_budgets_pick_the_store(self, tmp_path, host_store_mb, with_path,
                                    store_cls, echo):
        path = str(tmp_path / "blobs.log") if with_path else None
        res = MemQSim(chunk_qubits=3, compressor="zlib",
                      host_store_mb=host_store_mb, disk_path=path).run(ghz(6))
        assert type(res.store).__name__ == store_cls
        assert res.config_echo["store"] == echo
        tiers = [t["tier"] for t in res.config_echo["hierarchy"]["tiers"]]
        assert ("disk_blobs" in tiers) == (echo == "tiered")
        if echo == "tiered":
            assert res.store.host_budget_bytes == int(host_store_mb * (1 << 20))
            assert (res.tracker.peak("disk_store") > 0) == (host_store_mb == 0)
            assert (str(res.store.path) == path) == with_path
        assert res.norm() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("workers, pool_workers, engine, echo_workers", [
        (1, None, "serial", 1),
        (2, None, "parallel", 2),
        (1, 1, "parallel", 1),   # a pool of one lane thread
        (1, 2, "parallel", 2),   # an external pool wins over the config
    ])
    def test_codec_pool_picks_the_engine(self, workers, pool_workers, engine,
                                         echo_workers):
        """One engine; "parallel" = the codec ran as jobs on a pool (the
        run's own or the caller's), "serial" = inline, no pool at all."""
        from repro.compression import get_compressor
        from repro.parallel import CodecWorkerPool
        from repro.telemetry import Telemetry

        tel = Telemetry()
        pool = None if pool_workers is None else CodecWorkerPool(
            get_compressor("zlib"), workers=pool_workers)
        try:
            res = MemQSim(chunk_qubits=3, compressor="zlib", workers=workers,
                          codec_pool=pool, telemetry=tel).run(ghz(6))
        finally:
            if pool is not None:
                assert not pool._closed  # an external pool is never closed
                pool.close()
        laned = [row for row in res.timeline.rows if row[6]]  # lane > 0
        assert bool(laned) == (engine == "parallel")
        assert "execution" not in res.config_echo
        assert res.store.lane is None  # detached on the way out
        assert res.config_echo["workers"] == echo_workers
        assert res.norm() == pytest.approx(1.0, abs=1e-9)


class TestFusionFollowsTheCodec:
    """``fuse_gates`` unset is derived: a lossy codec fuses (nobody can
    tell), a lossless one does not (it is bit-identical to dense)."""

    CFG = dict(chunk_qubits=5, device=DeviceSpec(memory_bytes=2048))

    @staticmethod
    def blobs(res):
        store = res.store
        return [store.get_blob(k) for k in range(store.layout.num_chunks)]

    def test_lossless_default_is_unfused_and_bit_identical_to_dense(self):
        import hashlib

        circuit = qft(10)
        res = MemQSim(compressor="zlib", **self.CFG).run(circuit)
        assert res.config_echo["fuse_gates"] is False
        assert res.config_echo["fusion"] is False
        report = res.compile_report
        assert not report.fusion_enabled and report.ops_out == report.gates_in
        dense = DenseSimulator().run(circuit).data
        assert res.state_digest() == hashlib.sha256(dense.tobytes()).hexdigest()

    def test_lossy_default_is_the_explicitly_fused_run(self):
        circuit = get_workload("vqe", 10)
        derived = MemQSim(compressor="szlike", **self.CFG).run(circuit)
        fused = MemQSim(compressor="szlike", fuse_gates=True,
                        **self.CFG).run(circuit)
        assert derived.config_echo["fuse_gates"] is True
        assert derived.compile_report.fusion_enabled
        assert derived.compile_report.ops_out < derived.compile_report.gates_in
        assert derived.compile_report.ops_out == fused.compile_report.ops_out
        assert self.blobs(derived) == self.blobs(fused)

    def test_an_explicit_off_is_honoured_under_a_lossy_codec(self):
        circuit = get_workload("vqe", 10)
        res = MemQSim(compressor="szlike", fuse_gates=False,
                      **self.CFG).run(circuit)
        assert res.config_echo["fuse_gates"] is False
        assert not res.compile_report.fusion_enabled
        assert res.compile_report.ops_out == res.compile_report.gates_in

    @pytest.mark.parametrize("compressor", ["zlib", "szlike"])
    def test_worker_count_does_not_move_the_derived_run(self, compressor):
        circuit = get_workload("vqe", 10)
        one, two = (MemQSim(compressor=compressor, workers=w,
                            **self.CFG).run(circuit) for w in (1, 2))
        assert one.config_echo["fuse_gates"] == two.config_echo["fuse_gates"] \
            == (compressor == "szlike")
        assert self.blobs(one) == self.blobs(two)

    def test_the_rule_has_one_definition(self, monkeypatch):
        """The run and the daemon's job key both read
        ``MemQSimConfig.resolve_fuse_gates``: flip the rule there and
        both follow."""
        from repro.serve.jobs import Job

        cfg = MemQSimConfig(compressor="szlike", **self.CFG)
        unfused_key = cfg.with_updates(fuse_gates=False).plan_key()
        real = MemQSimConfig.resolve_fuse_gates
        monkeypatch.setattr(
            MemQSimConfig, "resolve_fuse_gates",
            lambda c: real(c) if c.fuse_gates is not None else not real(c))
        res = MemQSim(cfg).run(ghz(8))
        assert res.config_echo["fuse_gates"] is False
        assert not res.compile_report.fusion_enabled
        assert Job(ghz(8), cfg).plan_key == unfused_key
        named = MemQSim(cfg.with_updates(fuse_gates=True)).run(ghz(8))
        assert named.config_echo["fuse_gates"] is True  # named: not asked

    def test_lossy_and_lossless_tenants_share_a_cache_but_no_plan(self):
        from repro.core.plancache import PlanCache

        cache, circuit = PlanCache(), get_workload("vqe", 10)
        for compressor in ("szlike", "zlib", "szlike", "zlib"):
            MemQSim(compressor=compressor, plan_cache=cache,
                    **self.CFG).run(circuit)
        assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 2
        assert len(cache) == 2


class TestPlanFromTheEnd:
    """A zero-start run may plan its circuit backwards; what it returns
    never shows it."""

    # 16 KiB: groups of one global qubit beside an 8-qubit chunk
    CFG = dict(chunk_qubits=8, device=DeviceSpec(memory_bytes=16 << 10),
               compressor="zlib")

    @pytest.mark.parametrize("fusion", [False, True])
    def test_a_rebound_backward_plan_equals_a_fresh_one(self, fusion):
        sim = MemQSim(fuse_gates=fusion, **self.CFG)
        first = sim.run(tilted_brickwork(12, 0))
        assert first.compile_report.plan_direction == "backward"
        circuit = tilted_brickwork(12, 1)
        rebound = sim.run(circuit)
        fresh = MemQSim(fuse_gates=fusion, **self.CFG).run(circuit)
        assert [first.config_echo["plan_cache"],
                rebound.config_echo["plan_cache"],
                fresh.config_echo["plan_cache"]] == ["miss", "rebound", "miss"]
        assert rebound.compile_report.plan_direction == "backward"
        assert rebound.state_digest() == fresh.state_digest()
        assert np.allclose(rebound.statevector(),
                           DenseSimulator().run(circuit).data, atol=1e-12)

    def test_the_result_says_which_way_it_was_planned(self):
        circuit = tilted_brickwork(12, 0)
        res = MemQSim(**self.CFG).run(circuit)
        assert res.to_dict()["compile"]["plan_direction"] == "backward"
        assert res.config_echo["plan_direction"] == "backward"
        assert "planned backward" in res.report()
        # Any other start keeps the forward plan, same state.
        given = MemQSim(**self.CFG).run(circuit,
                                        initial_state=StateVector(12))
        assert given.compile_report.plan_direction == "forward"
        assert "planned backward" not in given.report()
        assert given.plan.group_passes > res.plan.group_passes
        assert np.allclose(given.statevector(), res.statevector(),
                           atol=1e-12)


class TestDiskStore:
    def test_disk_store_identical_to_memory(self, tmp_path):
        from repro.circuits import random_circuit

        circ = random_circuit(8, 40, seed=77)
        base = MemQSimConfig(chunk_qubits=4, compressor="zlib",
                             device=DeviceSpec(memory_bytes=1 << 13))
        ref = MemQSim(base).run(circ).statevector()
        mem = MemQSim(base).run(circ)
        log = tmp_path / "sim.log"
        # disk_path alone is the out-of-core run: RAM budget 0.
        res = MemQSim(base.with_updates(disk_path=str(log))).run(circ)
        assert np.allclose(res.statevector(), ref, atol=1e-12)
        assert res.tracker.peak("disk_store") > 0
        # RAM never holds more than the pinned zero blob plus the one blob
        # in flight to the log — not the state.
        assert res.tracker.peak("chunk_store") \
            < mem.tracker.peak("chunk_store") / 4
        res.store.close()
        assert log.exists()  # a caller's file is closed, never deleted

    def test_disk_store_default_temp_path(self, tmp_path, monkeypatch):
        """A log the store created itself is anonymous: nothing is in the
        temp dir while the result holds it, after close() or after the
        result is garbage collected."""
        import gc
        import tempfile

        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        cfg = MemQSimConfig(chunk_qubits=3, compressor="zlib",
                            device=DeviceSpec(memory_bytes=1 << 12),
                            host_store_mb=1e-4)

        def logs():
            return sorted(tmp_path.glob("memqsim_*"))

        res = MemQSim(cfg).run(ghz(6))
        assert res.norm() == pytest.approx(1.0, abs=1e-9)
        assert res.tracker.peak("disk_store") > 0
        assert res.store.path.name.startswith("memqsim_") and logs() == []
        res.store.close()
        assert logs() == []
        res.store.close()  # idempotent

        res = MemQSim(cfg).run(ghz(6))
        del res
        gc.collect()
        assert logs() == []

    def test_unknown_store_kind(self):
        """The store tier is derived from the budgets; no kind to name."""
        with pytest.raises(TypeError, match="store"):
            MemQSimConfig(store="tape")
