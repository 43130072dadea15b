"""Cancellation and graceful shutdown."""

from __future__ import annotations

import os
import threading
import time
from collections import Counter

import pytest

from repro.circuits import qft
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec
from repro.pipeline import CancelToken, JobCancelled, predict_pass_schedule
from repro.serve import ServeManager
from repro.telemetry import Telemetry


def small_base(**kw) -> MemQSimConfig:
    return MemQSimConfig(device=DeviceSpec(memory_bytes=(1 << 11) * 16),
                         chunk_qubits=5, **kw)


class FireAtNthCheck(CancelToken):
    """Fires at the Nth boundary checkpoint — a deterministic stand-in
    for an asynchronous cancel."""

    def __init__(self, n: int):
        super().__init__()
        self.checks = 0
        self.n = n

    def raise_if_cancelled(self) -> None:
        self.checks += 1
        if self.checks == self.n:
            self.cancel("mid-run")
        super().raise_if_cancelled()


def between_passes(result):
    """Checkpoints at which a cancel lands between two group passes of one
    stage, read off the plan ``result`` ran from |0...0> (the scheduler
    polls once per stage, then once per group pass). Which plan a circuit
    gets is the planner's choice, so a test derives its N from here."""
    passes = Counter(si for kind, si, *_ in predict_pass_schedule(
        result.compiled_stages, result.store.layout, support={0})
        if kind == "pass")
    checks, out = 0, []
    for si in range(len(result.compiled_stages)):
        checks += 1  # the stage's own poll
        for k in range(passes[si]):
            checks += 1
            if k:
                out.append(checks)
    return out


class TestCancelToken:
    def test_lifecycle(self):
        token = CancelToken()
        assert not token.cancelled
        token.raise_if_cancelled()  # no-op while live
        token.cancel("because")
        assert token.cancelled
        assert token.reason == "because"
        with pytest.raises(JobCancelled, match="because"):
            token.raise_if_cancelled()

    def test_null_token_never_fires(self):
        """A scheduler nobody can cancel polls a token of its own — a real
        one, that nothing holds a handle to fire."""
        from ..pipeline.test_scheduler import build_rig

        _lay, _store, sched = build_rig()
        assert isinstance(sched.cancel, CancelToken)
        sched.cancel.raise_if_cancelled()
        assert not sched.cancel.cancelled

    def test_precancelled_run_raises_before_any_stage(self):
        token = CancelToken()
        token.cancel("early")
        sim = MemQSim(small_base(), cancel=token)
        with pytest.raises(JobCancelled):
            sim.run(qft(9))

    def test_mid_run_cancel_stops_at_pass_boundary(self):
        """A token firing at the Nth boundary checkpoint stops the run
        right there — deterministic stand-in for an async cancel."""
        n = between_passes(MemQSim(small_base()).run(qft(11)))[0]
        token = FireAtNthCheck(n)
        sim = MemQSim(small_base(), cancel=token)
        with pytest.raises(JobCancelled, match="mid-run"):
            sim.run(qft(11))
        assert token.checks == n  # nothing polled past the firing pass

    def test_mid_stage_cancel_under_a_shared_codec_pool(self):
        """Cancelled between two passes of a stage with compress jobs in
        flight on a shared 2-lane pool: every pending write lands, the
        store forgets the pool and reloads chunk-consistent, and the pool
        serves the next job."""
        import numpy as np

        from repro.memory import ChunkLayout, CompressedChunkStore
        from repro.parallel import CodecWorkerPool

        cfg = small_base(compressor="zlib")

        def zero_store(telemetry=None):
            store = CompressedChunkStore(ChunkLayout(11, 5),
                                         cfg.make_compressor(),
                                         telemetry=telemetry)
            store.init_zero_state()
            return store

        # A given store plans the circuit as written; cancel between two
        # passes of its second stage.
        n = between_passes(MemQSim(cfg).run(qft(11),
                                            initial_store=zero_store()))[1]
        tel = Telemetry()  # the cancelled run's store books on its ledger
        store = zero_store(tel)
        with CodecWorkerPool(cfg.make_compressor(), workers=2) as pool:
            jobs = []
            submit = pool.submit_compress
            pool.submit_compress = lambda *a: jobs.append(a) or submit(*a)
            sim = MemQSim(cfg, cancel=FireAtNthCheck(n), codec_pool=pool)
            with pytest.raises(JobCancelled, match="mid-run"):
                sim.run(qft(11), initial_store=store)
            written = len(jobs)
            assert written > 0
            assert store.lane is None
            assert not store._pending and not store._prefetched
            # init + every write the lanes were handed landed
            assert tel.traffic.totals()["codec.raw_in"]["ops"] == 2 + written
            sv = store.to_statevector()  # every chunk decodes
            assert np.linalg.norm(sv) == pytest.approx(1.0, abs=1e-12)
            assert np.count_nonzero(sv) > 1  # the finished passes landed

            assert not pool._closed
            done = MemQSim(cfg, codec_pool=pool).run(qft(9))
            assert len(jobs) > written
            assert done.store.lane is None
            ref = MemQSim(cfg).run(qft(9))
            np.testing.assert_array_equal(done.statevector(),
                                          ref.statevector())

    def test_cancel_wins_over_a_lane_error_in_flight(self):
        """Compress jobs of the pass before the cancel raise on their lane,
        but only once the cancel fired: the run raises JobCancelled (what
        ServeManager books as cancelled), not the codec's error, and the
        lane is still settled and detached."""
        from repro.parallel import CodecWorkerPool

        cfg = small_base(compressor="zlib")
        token = FireAtNthCheck(between_passes(MemQSim(cfg).run(qft(11)))[0])
        raised = []

        def fails_once_cancelled(data):
            token._event.wait(10)
            raised.append(token.cancelled)
            raise RuntimeError("codec failed on a lane")

        class FailingLane(CodecWorkerPool):
            # Which pass a write comes from is known when it is submitted,
            # not when a lane gets to it: an earlier pass's write may run
            # late, and a later read waits for it.
            def submit_compress(self, key, data):
                if token.checks < token.n - 1:
                    return super().submit_compress(key, data)
                return self._submit("compress", key, fails_once_cancelled,
                                    data.copy())

        with FailingLane(cfg.make_compressor(), workers=2) as pool:
            sim = MemQSim(cfg, cancel=token, codec_pool=pool)
            with pytest.raises(JobCancelled, match="mid-run"):
                sim.run(qft(11))
            assert raised and all(raised)  # lanes raised, after the cancel
            assert not pool._closed


class TestManagerCancel:
    def test_cancel_running_job(self):
        mgr = ServeManager(small_base(), Telemetry())
        try:
            job = mgr.submit({"workload": "qft", "qubits": 11})
            deadline = time.monotonic() + 30
            while job.state != "running" and time.monotonic() < deadline:
                time.sleep(0.005)
            mgr.cancel(job.id)
            deadline = time.monotonic() + 30
            while not job.finished and time.monotonic() < deadline:
                time.sleep(0.01)
            # either it stopped at a pass boundary, or it was already in
            # its last pass and completed — both are clean exits
            assert job.state in ("cancelled", "done")
            assert mgr.arena.leased_amplitudes == 0
            assert mgr.arena.used == 0
        finally:
            mgr.shutdown()


class TestGracefulShutdown:
    def test_queued_jobs_cancelled_and_events_flushed(self, tmp_path):
        events_dir = str(tmp_path / "events")
        mgr = ServeManager(small_base(), Telemetry(),
                           events_dir=events_dir)
        block = mgr.arena.lease(mgr.arena.capacity, name="block")
        queued = [mgr.submit({"workload": "qft", "qubits": 9,
                              "tenant": f"t{i}"}) for i in range(3)]
        mgr.arena.release_lease(block)  # not required, but realistic
        mgr.shutdown()
        assert all(j.state in ("cancelled", "done") for j in queued)
        # every tracked job flushed an events file (possibly empty for
        # jobs cancelled before they started)
        for job in queued:
            assert os.path.exists(
                os.path.join(events_dir, f"{job.id}.events.jsonl"))
        assert mgr.arena.leased_amplitudes == 0
        assert mgr.codec_pool is None

    def test_shutdown_is_idempotent_and_rejects_new_work(self):
        from repro.serve import JobRejected

        mgr = ServeManager(small_base(), Telemetry())
        job = mgr.submit({"workload": "ghz", "qubits": 8})
        deadline = time.monotonic() + 30
        while not job.finished and time.monotonic() < deadline:
            time.sleep(0.01)
        mgr.shutdown()
        mgr.shutdown()
        with pytest.raises(JobRejected, match="shutting down"):
            mgr.submit({"workload": "ghz", "qubits": 8})

    def test_shutdown_releases_shared_pool_workers(self):
        """A daemon with a shared lane pool leaves no thread behind."""
        mgr = ServeManager(small_base(workers=2),
                           Telemetry())
        pool = mgr.codec_pool
        assert pool is not None and pool.workers == 2
        job = mgr.submit({"workload": "qft", "qubits": 9})
        deadline = time.monotonic() + 60
        while not job.finished and time.monotonic() < deadline:
            time.sleep(0.01)
        assert job.state == "done", job.error
        mgr.shutdown()
        assert mgr.codec_pool is None
        # the lanes are joined
        assert pool._closed
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("repro-codec")]
