"""EventBus: bounded ring semantics, fan-out cursors, clock anchoring,
and codec-lane work landing on the run's one clock."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.circuits import qft
from repro.core import MemQSim
from repro.telemetry import DEFAULT_BUS_CAPACITY, EventBus, Telemetry


def test_publish_assigns_increasing_seq_and_clock_time():
    times = iter([0.5, 1.25, 2.0])
    bus = EventBus(capacity=8, clock=lambda: next(times))
    a = bus.publish("alpha", x=1)
    b = bus.publish("beta")
    c = bus.publish("gamma", t=99.0)  # explicit timestamp wins
    assert (a.seq, b.seq, c.seq) == (0, 1, 2)
    assert (a.t, b.t) == (0.5, 1.25)
    assert c.t == 99.0
    assert a.data == {"x": 1} and b.data == {}
    assert bus.published == 3 and bus.dropped == 0


def test_kind_is_positional_only_so_payloads_may_carry_kind():
    bus = EventBus(capacity=4)
    ev = bus.publish("stage.start", kind="gate", index=3)
    assert ev.kind == "stage.start"
    assert ev.data == {"kind": "gate", "index": 3}
    # the Telemetry facade forwards the same way
    tel = Telemetry()
    tel.emit("stage.end", kind="permutation")
    assert tel.bus.tail(1)[0].data["kind"] == "permutation"


def test_ring_overflow_drops_oldest_and_counts():
    bus = EventBus(capacity=4)
    for i in range(10):
        bus.publish("e", i=i)
    assert bus.published == 10
    assert len(bus) == 4
    assert bus.dropped == 6
    retained = [ev.data["i"] for ev in bus.snapshot()]
    assert retained == [6, 7, 8, 9]  # oldest first, newest retained


def test_events_since_reports_missed_when_reader_falls_behind():
    bus = EventBus(capacity=4)
    for i in range(3):
        bus.publish("e", i=i)
    events, cursor, missed = bus.events_since(0)
    assert [e.seq for e in events] == [0, 1, 2]
    assert cursor == 3 and missed == 0
    # fall a full ring behind: 0..2 read, 3..9 published, only 6..9 retained
    for i in range(3, 10):
        bus.publish("e", i=i)
    events, cursor, missed = bus.events_since(cursor)
    assert [e.seq for e in events] == [6, 7, 8, 9]
    assert cursor == 10 and missed == 3


def test_subscriptions_are_independent_cursors():
    bus = EventBus(capacity=16)
    sub_a = bus.subscribe()
    bus.publish("one")
    sub_b = bus.subscribe()  # subscribes *after* the first event
    bus.publish("two")
    assert [e.kind for e in sub_a.poll()] == ["one", "two"]
    assert [e.kind for e in sub_b.poll()] == ["two"]
    assert sub_a.poll() == [] and sub_b.poll() == []
    bus.publish("three")
    assert [e.kind for e in sub_a.poll()] == ["three"]
    assert [e.kind for e in sub_b.poll()] == ["three"]


def test_subscribe_tail_backfills_and_missed_accumulates():
    bus = EventBus(capacity=4)
    for i in range(6):
        bus.publish("e", i=i)
    sub = bus.subscribe(tail=2)
    assert [e.data["i"] for e in sub.poll()] == [4, 5]
    for i in range(6, 20):
        bus.publish("e", i=i)
    got = sub.poll()
    assert [e.data["i"] for e in got] == [16, 17, 18, 19]
    assert sub.missed == 10  # events 6..15 were overwritten before the poll


def test_publish_at_re_anchors_wall_clock_instants():
    """There is no second clock to re-anchor from: an instant measured on
    another thread (a codec lane) is read off the bus's own clock and
    published with ``t=``; seq order stays publication order."""
    bus = EventBus(capacity=8, clock=lambda: 5.0)
    assert not hasattr(bus, "publish_at") and not hasattr(bus, "epoch_wall")
    ev = bus.publish("worker.compress", t=0.75, key=3)
    assert (ev.t, ev.data) == (0.75, {"key": 3})
    later = bus.publish("kernel")
    assert later.t == 5.0 and later.seq == ev.seq + 1


def test_bus_shares_the_tracer_clock():
    tel = Telemetry()
    assert not hasattr(tel.tracer, "epoch_wall")
    ev = tel.bus.publish("ping")
    # the bus timestamp sits on the tracer's axis: close to tracer.now
    assert abs(tel.tracer.now - ev.t) < 0.5


def test_jsonl_export_round_trips(tmp_path):
    bus = EventBus(capacity=8)
    bus.publish("h2d", chunk=1, nbytes=2048)
    bus.publish("kernel", chunk=1)
    docs = [json.loads(line) for line in bus.to_jsonl()]
    assert [d["kind"] for d in docs] == ["h2d", "kernel"]
    assert docs[0]["data"] == {"chunk": 1, "nbytes": 2048}
    out = tmp_path / "events.jsonl"
    assert bus.write_jsonl(str(out)) == 2
    lines = out.read_text().splitlines()
    assert [json.loads(l)["seq"] for l in lines] == [0, 1]


def test_concurrent_publish_keeps_seqs_unique():
    bus = EventBus(capacity=DEFAULT_BUS_CAPACITY)
    per_thread = 200

    def worker(tid):
        for i in range(per_thread):
            bus.publish("t", tid=tid, i=i)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert bus.published == 4 * per_thread
    seqs = [e.seq for e in bus.snapshot()]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        EventBus(capacity=0)


def test_null_bus_is_free():
    """A telemetry built without a bus (``bus=False``) keeps tracer,
    metrics and ledger; what would be published goes nowhere."""
    from repro.device.timeline import Stage, Timeline
    from repro.telemetry.live import render_prometheus

    tel = Telemetry(bus=False)
    assert tel.enabled and tel.bus is None
    tel.emit("anything", x=1)
    timeline = Timeline()
    tel.tracer.attach(timeline)
    timeline.record(Stage.H2D, tel.tracer._epoch, 0.001, 3, -1, 64)
    assert [sp.name for sp in tel.tracer.spans] == ["h2d"]
    text = render_prometheus(tel)
    assert "repro_events_published_total" not in text
    assert "repro_events_dropped_total" not in text


def test_disabled_telemetry_uses_null_bus():
    """Off means no sinks at all: nothing to publish to, and saying so
    beats pretending."""
    tel = Telemetry.disabled()
    assert not hasattr(tel, "bus")
    with pytest.raises(AttributeError, match="telemetry is disabled"):
        tel.emit("anything", x=1)


def test_worker_events_re_anchor_onto_the_parent_axis():
    """Codec lane jobs land on the run's one axis: each one is a timeline
    row whose exported span starts where its lane measured it, on the
    tracer clock, between the main thread's own events — and the bus
    carries no per-job copy."""
    from repro.compression import get_compressor
    from repro.device import Timeline
    from repro.memory import ChunkLayout, CompressedChunkStore
    from repro.parallel import CodecWorkerPool

    tel = Telemetry()
    hops = Timeline()
    tel.tracer.attach(hops)
    store = CompressedChunkStore(ChunkLayout(8, 6), get_compressor("zlib"))
    store.report_hops_to(hops)
    tel.bus.publish("before")
    with CodecWorkerPool(store.compressor, workers=2) as pool:
        store.attach_lane(pool)
        for k in range(3):
            store.store(k, np.full(64, 0.5 + k * 1j))
        store.detach_lane()
    tel.bus.publish("after")
    events = tel.bus.snapshot()
    assert [e.kind for e in events] == ["before", "after"]
    spans = tel.tracer.find("compress")
    assert sorted(sp.args["chunk"] for sp in spans) == [0, 1, 2]
    for sp in spans:
        assert events[0].t <= sp.start <= sp.end <= events[1].t
        assert sp.tid == 100 + sp.args["lane"]


def test_parallel_run_merges_worker_events(tight_config):
    pool_cfg = tight_config.with_updates(workers=2, compressor="szlike")
    tel = Telemetry()
    res = MemQSim(pool_cfg, telemetry=tel).run(qft(8))
    assert res.norm() == pytest.approx(1.0, abs=1e-3)
    laned = [sp for sp in tel.tracer.spans if sp.args.get("lane")]
    assert laned, "the trace shows no lane work"
    wall = tel.tracer.now
    for sp in laned:
        assert 0.0 <= sp.start <= wall  # anchored inside the run window
        assert sp.name in ("compress", "decompress")
    events = tel.bus.snapshot()
    assert not [e for e in events if e.kind.startswith("worker.")]
    # the stream stays seq-ordered
    seqs = [e.seq for e in events]
    assert seqs == sorted(seqs)
