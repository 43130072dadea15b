"""What an enabled run tells its observers, pinned.

Four run shapes with ``Telemetry()`` on; for each, everything the sinks
hold that does not depend on a clock or a thread is compared with
``observer_contract.json``: span name -> count (as the Chrome-trace export
draws them: hop spans are rendered from the run's timeline rows), event
kind -> count, every counter (they are all byte or call counts), the
traffic ledger and the chunk access trace. The file was written by this module's ``__main__`` at
the commit before the group loop got its observer seam, so a refactor of
how the run reaches its sinks has to reproduce it.

One correction was made by hand after that, in the two shapes with a
chunk cache at ``workers=1``: the old loop wrapped a ``decompress`` /
``compress`` hop around every call on the *cache* (hits, dirty inserts,
a miss's write-back eviction booked as decompress), where ``workers=2``
booked the codec calls the store made. The store's calls are the hops,
so those two span / event counts were replaced by the number of codec
calls the same pinned ledger holds (``codec.raw_out`` ops; ``codec.raw_in``
ops less the two of ``init_zero_state``) — for ``lossy_cache_tier`` exactly
what its ``workers=2`` twin always read.

Since then the rule is: the file changes only by deleting entries for
names the code no longer has, never by re-pinning a value. So far that
happened three times — when the codec lane became threads, the counters
``parallel.fallback`` and ``parallel.jobs.inline`` (0 in every shape)
went with the process pool; when the simulated CPU-offload path left the
run, its ``cpu_offload`` shape and every shape's ``cpu_group_passes``
(0 in the other four) went with it; when the timeline row became the one
record of a hop, every copy of it went: the per-hop bus events, the lane
spans and events, the codec / transfer / kernel counters and
``parallel.jobs``, and the bus events that copied a counter.

Two re-pins are sanctioned. The first: when a load of the
interned zero blob became a fill (no codec call, no row, no traffic), the
codec's load side moved and nothing else did. In every shape the
``decompress`` span count, the ``codec.raw_out`` and
``codec.compressed_in`` bytes and ops (totals, per-stage rows, worker
sums and their ``traffic.*`` counters) were replaced by what the run now
measures; the access trace, its sha256 and every other entry are the
bytes they were. The moved values are the plan's:
:func:`test_moved_entries_are_the_predicted_live_loads` derives them from
the support set (``predict_traffic`` in the shape without a cache; cache
misses less zero members in the others).

One kind of entry has been added: when the lossless
frame gained its raw mode, the store began counting each blob's frame
(``codec.lossless_frame.{raw,deflate}``), and the two zlib shapes gained
that counter. Its value is derived, not measured:
:func:`test_every_stored_blob_counts_one_frame_or_stage` checks it is the
pinned ledger's ``codec.raw_in`` ops, and both shapes are from |0…0⟩
states the probe sends to deflate, so no blob byte moved.

The second re-pin came with the uniform frame, and it moved only what a
blob's size and frame decide: a chunk of one repeated amplitude is now
stored as that amplitude (``LSU1`` under zlib, SZL1 flag 2 under szlike).
In the two zlib shapes ``codec.lossless_frame.deflate`` split into
``deflate`` + ``uniform`` (64 = 1 + 63 in ``ram_qft``, 91 = 1 + 90 in
``permutation``), and in the two lossy shapes the zero blob moved from
``codec.entropy_choice.zlib`` to ``uniform`` (2 = 1 + 1); each sum is the
parent's count. The ``codec.compressed_in`` / ``codec.compressed_out``
bytes (totals, per-stage rows, worker sums and their ``traffic.*``
counters) were replaced by what the runs now measure. Every op count,
span, event, access trace and tier counter is the value it was.

The file pins how a run reaches its sinks for a given plan, not which
plan the planner picks. It predates backward plans, which a zero-start
run may now choose (``permutation`` would: 62 chunk loads against 94), so
every shape is observed under the forward plans it was pinned with.
"""

import hashlib
import json
import pathlib
from collections import Counter

from unittest import mock

import pytest

import repro.core.memqsim as facade
from repro.analysis.audit import predict_traffic
from repro.circuits import Circuit, get_workload
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec
from repro.pipeline import plan_stages
from repro.pipeline.sweep import predict_sweep
from repro.telemetry import ChunkAccessRecorder, Telemetry

PINNED = pathlib.Path(__file__).with_name("observer_contract.json")

SMALL = DeviceSpec(memory_bytes=(1 << 6) * 16 * 2)


def _lossy(workers):
    return MemQSimConfig(
        chunk_qubits=5, device=SMALL, precision="c64", compressor="szlike",
        compressor_options={"error_bound": 1e-4}, cache_chunks=4,
        cache_policy="belady", host_store_mb=0.001, workers=workers,
        fuse_gates=False)


def _zlib(**kw):
    return MemQSimConfig(chunk_qubits=5, device=SMALL, compressor="zlib",
                         **kw)


def _keeps_a_permutation():
    """``x`` on global qubits and a global-global ``swap`` behind gates that
    pin them in place: one stage relabels blobs instead of streaming."""
    c = Circuit(10)
    for q in range(10):
        c.h(q)
    return c.cx(0, 9).x(9).x(7).rz(0.3, 8).swap(6, 8).cx(9, 1).h(8)


#: name -> (config, circuit)
SHAPES = {
    "ram_qft": (_zlib(), get_workload("qft", 10)),
    "lossy_cache_tier": (_lossy(1), get_workload("vqe", 10)),
    "lossy_cache_tier_w2": (_lossy(2), get_workload("vqe", 10)),
    "permutation": (_zlib(cache_chunks=4), _keeps_a_permutation()),
}

#: at ``workers=2`` a write lands when its job finishes, so which blobs the
#: host tier has spilled by then (and reads back later) follows the clock
CLOCKED = {"lossy_cache_tier_w2": ("disk.", "tier.")}


def forward(circuit, layout, cap, *args, backward=False, **kwargs):
    return plan_stages(circuit, layout, cap, *args, **kwargs)


def observe(shape):
    cfg, circuit = SHAPES[shape]
    tel = Telemetry()
    tel.access = ChunkAccessRecorder()
    with mock.patch.object(facade, "plan_stages", forward):
        res = MemQSim(cfg, telemetry=tel).run(circuit)
    assert tel.bus.dropped == 0, "shape too large for the event ring"
    ledger = tel.traffic.to_dict()
    by_worker = ledger.pop("by_worker")  # keyed by codec lane
    summed = Counter()
    for row in by_worker.values():
        summed.update(row)
    trace = tel.access.trace()
    exported = tel.tracer.to_chrome_trace()["traceEvents"]
    return {
        "spans": dict(sorted(Counter(
            ev["name"] for ev in exported if ev["ph"] == "X").items())),
        "events": dict(sorted(Counter(
            ev.kind for ev in tel.bus.snapshot()).items())),
        "counters": tel.metrics.snapshot()["counters"],
        "ledger": ledger,
        "ledger_workers_sum": dict(sorted(summed.items())),
        "access_len": len(trace),
        "access_sha256": hashlib.sha256(
            json.dumps(trace).encode()).hexdigest(),
        "permutation_stages": res.scheduler_stats.permutation_stages,
    }


def _comparable(observed, shape, prefix=""):
    """``path -> value`` of everything ``shape`` fixes."""
    out = {}
    for key, value in observed.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_comparable(value, shape, path + "/"))
        elif not any(tag in path for tag in CLOCKED.get(shape, ())):
            out[path] = value
    return out


@pytest.mark.parametrize("shape", list(SHAPES))
def test_enabled_run_reaches_every_sink_as_pinned(shape):
    seen = observe(shape)
    want = json.loads(PINNED.read_text())[shape]
    seen, want = _comparable(seen, shape), _comparable(want, shape)
    assert {k: v for k, v in seen.items() if want.get(k) != v} == {}
    assert seen.keys() == want.keys()


@pytest.mark.parametrize("shape", list(SHAPES))
def test_moved_entries_are_the_predicted_live_loads(shape):
    """Every pinned decode is a load of a live chunk: without a cache the
    per-stage ``codec.raw_out`` rows are ``predict_traffic``'s, and with
    one the decodes are the cache misses less the zero members (a zero
    member's first read always misses, and is filled)."""
    cfg, circuit = SHAPES[shape]
    with mock.patch.object(facade, "plan_stages", forward):
        res = MemQSim(cfg).run(circuit)
    layout = res.store.layout
    pinned = json.loads(PINNED.read_text())[shape]
    ledger = pinned["ledger"]
    decodes = ledger["totals"]["codec.raw_out"]
    assert decodes["bytes"] == decodes["ops"] * layout.chunk_nbytes
    assert decodes["ops"] == ledger["totals"]["codec.compressed_in"]["ops"] \
        == pinned["spans"]["decompress"]
    assert decodes["bytes"] == pinned["ledger_workers_sum"]["codec.raw_out"] \
        == pinned["counters"]["traffic.codec.raw_out.bytes"]
    if not cfg.cache_chunks:
        predicted = predict_traffic(res.compiled_stages, layout, support={0})
        assert {si: row.get("codec.raw_out", 0)
                for si, row in predicted.items()} \
            == {si: ledger["by_stage"].get(str(si), {}).get("codec.raw_out", 0)
                for si in predicted}
        return
    zero = sum(len(z) for _p, z in predict_sweep(
        res.compiled_stages, layout, {0}))
    assert decodes["ops"] == pinned["counters"]["cache.miss"] - zero


@pytest.mark.parametrize("shape", list(SHAPES))
def test_every_stored_blob_counts_one_frame_or_stage(shape):
    """The store counts one codec stage or lossless frame per blob it
    stores: the pinned ``codec.raw_in`` ops, the codec's compressions."""
    pinned = json.loads(PINNED.read_text())[shape]
    counted = sum(v for k, v in pinned["counters"].items()
                  if k.startswith(("codec.entropy_choice.",
                                   "codec.lossless_frame.")))
    assert counted == pinned["ledger"]["totals"]["codec.raw_in"]["ops"]


class _Untouchable:
    def __init__(self, name):
        self._name = name

    def __getattr__(self, attr):
        raise AssertionError(f"disabled run touched {self._name}.{attr}")


@pytest.mark.parametrize("shape", list(SHAPES))
def test_disabled_run_touches_no_sink(shape):
    """Off is the ``enabled`` guard and the null observer, nothing else:
    the run, its report and its JSON never reach for a sink."""
    tel = Telemetry.disabled()
    for sink in ("tracer", "metrics", "bus", "traffic", "access", "progress",
                 "monitor"):
        setattr(tel, sink, _Untouchable(sink))
    cfg, circuit = SHAPES[shape]
    res = MemQSim(cfg.with_updates(monitor_interval_ms=5.0),
                  telemetry=tel).run(circuit)
    res.report()
    res.to_dict()
    assert res.timeline.count() > 0


def test_the_shapes_exercise_what_they_name():
    pinned = json.loads(PINNED.read_text())
    assert pinned["permutation"]["permutation_stages"] > 0
    assert pinned["lossy_cache_tier"]["counters"]["cache.hit"] > 0
    assert pinned["lossy_cache_tier"]["counters"]["tier.spill"] > 0
    assert SHAPES["lossy_cache_tier_w2"][0].workers == 2


if __name__ == "__main__":
    PINNED.write_text(json.dumps(
        {shape: observe(shape) for shape in SHAPES}, indent=1,
        sort_keys=True) + "\n")
