"""Fault injection: a cancel at every poll, behind a chunk cache.

The scheduler polls its cancel token once per stage and once per group
pass; a cancel finishes the current pass and unwinds. A chunk cache holds
the finished passes' chunks until they are evicted, so an unwinding run
must write them back: the store a cancelled cached run leaves is the
store the uncached run cancelled at the same poll leaves, bit for bit,
whatever the policy and the lane count. The same holds over a tiered
store whose blobs spill to its disk log, and closing that store leaves no
log behind.
"""

import tempfile

import numpy as np
import pytest

from repro.circuits import get_workload
from repro.core import MemQSim, MemQSimConfig, PlanCache
from repro.device import DeviceSpec
from repro.memory import ChunkLayout, CompressedChunkStore, TieredChunkStore
from repro.pipeline import JobCancelled

from ..serve.test_cancel import FireAtNthCheck

N, CHUNK_QUBITS = 10, 4
CFG = MemQSimConfig(chunk_qubits=CHUNK_QUBITS, compressor="zlib",
                    device=DeviceSpec(memory_bytes=(1 << 6) * 16))
#: every run compiles the same plan; compile it once
PLANS = PlanCache()


def cancelled_store(poll, workers=1, host_budget=None, **cache):
    """qft(10) from a |0...0> store, cancelled at its ``poll``-th poll
    (never, past the last one); returns the store and the token. A
    ``host_budget`` (bytes) makes the store tiered, over its own log."""
    layout = ChunkLayout(N, CHUNK_QUBITS)
    store = CompressedChunkStore(layout, CFG.make_compressor()) \
        if host_budget is None else \
        TieredChunkStore(layout, CFG.make_compressor(), None, host_budget)
    store.init_zero_state()
    token = FireAtNthCheck(poll)
    cfg = CFG.with_updates(workers=workers, **cache)
    try:
        MemQSim(cfg, cancel=token, plan_cache=PLANS).run(
            get_workload("qft", N), initial_store=store)
    except JobCancelled:
        assert token.checks == poll
    else:
        assert token.checks < poll
    return store, token


@pytest.fixture(scope="module")
def uncached():
    """Per poll, the state the uncached run cancelled there leaves."""
    _store, token = cancelled_store(10 ** 9)
    polls = token.checks
    assert polls > 40
    return {poll: cancelled_store(poll)[0].to_statevector()
            for poll in range(2, polls + 1)}


@pytest.mark.parametrize("policy", ["belady", "mru"])
@pytest.mark.parametrize("workers", [1, 2])
def test_a_cancelled_cached_run_leaves_the_uncached_store(uncached, policy,
                                                          workers):
    moved = 0
    for poll, want in uncached.items():
        store, _token = cancelled_store(poll, workers, cache_chunks=4,
                                        cache_policy=policy)
        got = store.to_statevector()
        assert np.array_equal(got, want), poll
        assert store.lane is None and not store._pending, poll
        moved += not np.array_equal(want, uncached[2])
    assert moved  # the polls do cut the run at different passes


@pytest.mark.parametrize("cache", [{}, {"cache_chunks": 4,
                                        "cache_policy": "belady"}],
                         ids=["uncached", "belady"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("host_budget", [1, 600])
def test_a_cancelled_tiered_run_leaves_the_ram_store(
        uncached, tmp_path, monkeypatch, host_budget, workers, cache):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    spills = 0
    # every fourth poll: all eight arms over every poll take a minute
    for poll, want in list(uncached.items())[::4]:
        store, _token = cancelled_store(poll, workers, host_budget, **cache)
        assert np.array_equal(store.to_statevector(), want), poll
        spills += store.tier_stats.spills
        store.close()
        assert store.tracker.current("disk_store") == 0, poll
    assert spills  # the blobs did go through the log
    assert list(tmp_path.iterdir()) == []
