"""A run with a codec lane: what the timeline and the trace must show.

The group loop is the same for every worker count; what a pool changes is
*when* the codec runs. These tests pin the two things that could silently
go wrong: the timeline must carry the seconds the codec took where it ran
(not how long the loop waited for it, nor what a cache in front of the
store did meanwhile) — the same way inline and on a lane — and the lane
must be handed the next pass's reads before this pass's kernel runs, which
is the overlap it exists for.
"""

from collections import Counter, defaultdict

from repro.analysis.audit import predict_pass_schedule
from repro.pipeline.sweep import predict_sweep
from repro.circuits import get_workload
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec
from repro.device.executor import DeviceExecutor
from repro.device.timeline import Stage
from repro.memory import ChunkLayout, CompressedChunkStore, MemoryTracker
from repro.parallel import CodecWorkerPool
from repro.telemetry import Telemetry

WORKERS = 2


def laned_run(n, workers=WORKERS, **kw):
    """qft(n) streamed through a small device with a 2-worker lane, from
    a store initialised beforehand (its codec calls are no hop of the
    run)."""
    tel = Telemetry()
    cfg = MemQSimConfig(device=DeviceSpec(memory_bytes=1 << 14),
                        workers=workers, **kw)
    store = CompressedChunkStore(ChunkLayout(n, 7), cfg.make_compressor(),
                                 MemoryTracker())
    store.init_zero_state()
    res = MemQSim(cfg, telemetry=tel).run(
        get_workload("qft", n), initial_store=store)
    return res, tel, res.compiled_stages


def test_timeline_codec_seconds_are_the_workers_not_the_wait():
    # inline and on the lane, without and with a cache in front of the
    # store: one booking path, the same account (the test keeps its one id)
    for workers in (1, WORKERS):
        for cache_chunks in (0, 8):
            _codec_seconds_are_the_stores(workers, cache_chunks)


def _codec_seconds_are_the_stores(workers, cache_chunks):
    res, tel, stages = laned_run(
        12, workers=workers, cache_chunks=cache_chunks, cache_policy="belady",
        compressor="szlike", compressor_options={"error_bound": 1e-6})
    tl = res.timeline
    codec = [r for r in tl.rows if r[0] in (Stage.COMPRESS, Stage.DECOMPRESS)]
    if workers > 1:
        # a lane runs its jobs one after another, so the intervals it
        # measured around its codec calls never overlap — the time the loop
        # waited for a job would
        by_lane = defaultdict(list)
        for stage, start, seconds, _group, _chunk, _nbytes, lane, *_ in codec:
            if lane:
                by_lane[lane].append((start, start + seconds))
        assert by_lane
        for spans in by_lane.values():
            spans.sort()
            assert all(end <= nxt for (_s, end), (nxt, _e)
                       in zip(spans, spans[1:]))
    else:
        assert all(r[6] == 0 for r in codec)
    # the run's account, hop kind by hop kind, is its rows: a cache's
    # write-back compress is no part of "decompress"
    assert res.stage_breakdown["decompress"] \
        == tl.serial_seconds(Stage.DECOMPRESS)
    # one row per codec call of the run — the store's calls, not the
    # loop's calls on a cache — and one exported span each; every one
    # chained to the group that issued it. A zero member's load is a fill,
    # not a call: its first read, always a cache miss, books nothing
    loaded = sum(r[5] for r in tl.rows if r[0] == Stage.H2D) \
        // res.store.layout.chunk_nbytes
    zero = sum(len(z) for _p, z in predict_sweep(
        stages, res.store.layout, {0}))
    assert zero > 0
    if cache_chunks:
        assert res.store.cache_stats.hits > 0
        assert tl.count(Stage.DECOMPRESS) \
            == res.store.cache_stats.misses - zero < loaded - zero
    else:
        assert tl.count(Stage.DECOMPRESS) == loaded - zero
    assert len(tel.tracer.find("decompress")) == tl.count(Stage.DECOMPRESS)
    assert len(tel.tracer.find("compress")) == tl.count(Stage.COMPRESS)
    assert all(r[3] >= 0 and r[4] >= 0 for r in codec)


def test_next_pass_decompress_is_submitted_before_this_pass_kernel(
        monkeypatch):
    """Inside a stage and across a stage boundary with no permutation
    barrier between, pass k+1's decompress jobs — of live chunks pass k
    does not write (a zero member has none, and a read of what pass k
    writes waits for the write) — are submitted to the lane before pass
    k's kernel runs. Checked on one log of the submissions and kernel
    launches in the order the run made them, not on when lanes happened
    to start the jobs."""
    log = []
    submit = CodecWorkerPool.submit_decompress
    run_ops = DeviceExecutor.run_ops

    def logged_submit(pool, key, blob):
        log.append(("decompress", key))
        return submit(pool, key, blob)

    def logged_run_ops(executor, buf, ops, chunk=-1):
        log.append(("kernel", chunk))
        return run_ops(executor, buf, ops, chunk)

    monkeypatch.setattr(CodecWorkerPool, "submit_decompress", logged_submit)
    monkeypatch.setattr(DeviceExecutor, "run_ops", logged_run_ops)
    res, tel, stages = laned_run(12, compressor="zlib")
    monkeypatch.undo()
    # the store was initialised to |0...0>: chunk 0 is the start support
    sweep = predict_sweep(stages, res.store.layout, {0})
    passes = [p for p, _zero in sweep]
    assert passes == predict_pass_schedule(stages, res.store.layout, {0})
    assert all(kind == "pass" for kind, *_ in passes), "plan has a barrier"
    # per pass: which of each member's reads (first, second, ...) is its
    # own; only live members have a decompress job
    read = Counter()
    nth_read = []
    for (_k, _si, _gi, members), zero in sweep:
        live = [c for c in members if c not in zero]
        nth_read.append({c: read[c] for c in live})
        read.update(live)
    # no cache: a chunk meets the codec once per pass that holds it, and
    # every load is a lane job submitted once (none is dropped)
    spans = Counter(sp.args["chunk"] for sp in tel.tracer.find("decompress"))
    assert spans == read
    # where each chunk's n-th submission and each pass's kernel sit in
    # the log
    submitted, kernel_at = defaultdict(list), []
    for at, (kind, key) in enumerate(log):
        if kind == "decompress":
            submitted[key].append(at)
        else:
            kernel_at.append(at)
    assert {c: len(ats) for c, ats in submitted.items()} == read
    assert [log[at][1] for at in kernel_at] == [gi for _k, _si, gi, _m
                                                in passes]
    seen = Counter()
    for k, ((_k, si, gi, members), (_k2, nsi, _ngi, _nm)) in enumerate(
            zip(passes, passes[1:])):
        # a read of a chunk pass k writes waits for that write
        ahead = {c: n for c, n in nth_read[k + 1].items() if c not in members}
        if not ahead:
            continue
        for c, n in ahead.items():
            assert submitted[c][n] < kernel_at[k], (si, gi, c)
        seen["within" if nsi == si else "across"] += 1
    # both kinds of boundary occur in this plan
    assert seen["within"] and seen["across"], seen
