"""The HTTP/JSON API end-to-end (ephemeral port, stdlib client)."""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.core import MemQSimConfig
from repro.device import DeviceSpec
from repro.serve import ServeAPIError, ServeClient, ServeManager, ServeServer
from repro.telemetry import Telemetry


@pytest.fixture
def daemon():
    base = MemQSimConfig(device=DeviceSpec(memory_bytes=(1 << 11) * 16),
                         chunk_qubits=5, fuse_gates=False)
    mgr = ServeManager(base, Telemetry(), max_jobs=2)
    srv = ServeServer(mgr, port=0).start()
    try:
        yield mgr, ServeClient(srv.url)
    finally:
        mgr.shutdown()
        srv.stop()


class TestJobAPI:
    def test_submit_poll_result_roundtrip(self, daemon):
        mgr, client = daemon
        job = client.submit({"workload": "qft", "qubits": 9,
                             "tenant": "alice", "shots": 64, "seed": 3})
        assert job["state"] in ("queued", "running")
        assert job["tenant"] == "alice"
        assert len(job["structural_hash"]) == 64
        snap = client.wait(job["id"])
        assert snap["state"] == "done"
        assert snap["progress"]["fraction"] == pytest.approx(1.0)
        doc = client.result(job["id"])
        assert doc["state_digest"]
        assert sum(doc["counts"].values()) == 64
        assert doc["result"]["num_qubits"] == 9

    def test_jobs_listing(self, daemon):
        mgr, client = daemon
        a = client.submit({"workload": "ghz", "qubits": 8})
        client.wait(a["id"])
        listing = client.jobs()
        assert [j["id"] for j in listing] == [a["id"]]

    def test_result_conflict_while_pending(self, daemon):
        mgr, client = daemon
        block = mgr.arena.lease(mgr.arena.capacity)
        try:
            job = client.submit({"workload": "qft", "qubits": 9})
            with pytest.raises(ServeAPIError) as err:
                client.result(job["id"])
            assert err.value.status == 409
        finally:
            mgr.arena.release_lease(block)

    def test_unknown_job_404(self, daemon):
        _, client = daemon
        with pytest.raises(ServeAPIError) as err:
            client.job("deadbeef")
        assert err.value.status == 404

    def test_bad_submission_400(self, daemon):
        _, client = daemon
        with pytest.raises(ServeAPIError) as err:
            client.submit({"workload": "not-a-workload"})
        assert err.value.status == 400
        # neither the store nor the engine is a tenant's (or anyone's) to name
        for override in ({"store": "disk"}, {"execution": "serial"}):
            with pytest.raises(ServeAPIError) as err:
                client.submit({"workload": "qft", "qubits": 9,
                               "config": override})
            assert err.value.status == 400

    @pytest.mark.parametrize("override", [
        {"compressor": "nope"},
        {"error_bound": "abc"},
        {"error_bound": float("inf")},  # sent as JSON Infinity
        {"error_bound": float("nan")},  # sent as JSON NaN
        {"error_bound": 0},
    ])
    def test_bad_codec_or_bound_400(self, daemon, override):
        _, client = daemon
        with pytest.raises(ServeAPIError) as err:
            client.submit({"workload": "qft", "qubits": 9,
                           "config": override})
        assert err.value.status == 400

    def test_cancel_queued_job(self, daemon):
        mgr, client = daemon
        block = mgr.arena.lease(mgr.arena.capacity)
        try:
            job = client.submit({"workload": "qft", "qubits": 9})
            snap = client.cancel(job["id"])
            assert snap["state"] == "cancelled"
            with pytest.raises(ServeAPIError) as err:
                client.result(job["id"])
            assert err.value.status == 410
        finally:
            mgr.arena.release_lease(block)


class TestOpsEndpoints:
    def test_root_and_healthz(self, daemon):
        _, client = daemon
        assert client.healthz() == {"ok": True}
        info = client.info()
        assert info["service"] == "repro-serve"
        assert "plan_cache" in info and "arena" in info

    def test_metrics_exposition(self, daemon):
        _, client = daemon
        a = client.submit({"workload": "qft", "qubits": 9})
        b = client.submit({"workload": "qft", "qubits": 9})
        client.wait(a["id"])
        client.wait(b["id"])
        text = client.metrics()
        metrics = dict(
            line.split(" ", 1) for line in text.splitlines()
            if line and not line.startswith("#") and " " in line)
        assert float(metrics["repro_serve_plan_cache_hit_total"]) >= 1
        assert float(metrics["repro_serve_jobs_submitted_total"]) == 2

    def test_sse_event_stream_terminates(self, daemon):
        _, client = daemon
        job = client.submit({"workload": "qft", "qubits": 9})
        client.wait(job["id"])
        url = f"{client.url}/jobs/{job['id']}/events?tail=200&max_seconds=5"
        with urllib.request.urlopen(url, timeout=30) as resp:
            body = resp.read().decode()
        payloads = [json.loads(line[6:]) for line in body.splitlines()
                    if line.startswith("data: ") and line != "data: "]
        kinds = {p.get("kind") for p in payloads if isinstance(p, dict)}
        assert "run.end" in kinds  # the job's own bus, fully drained
        assert "event: done" in body  # self-terminating marker
