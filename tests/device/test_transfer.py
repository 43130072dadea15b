"""Unit tests for the three transfer strategies (Table 1's subjects)."""

import numpy as np
import pytest

from repro.device import (
    AsyncPerElementCopy,
    BufferedCopy,
    DeviceExecutor,
    DeviceSpec,
    SyncCopy,
    make_strategy,
)
from repro.telemetry import Telemetry


def rand(n, seed=0):
    g = np.random.default_rng(seed)
    return g.standard_normal(n) + 1j * g.standard_normal(n)


ALL = [
    lambda: SyncCopy(),
    lambda: AsyncPerElementCopy(),
    lambda: BufferedCopy(max_elements=4096),
]


class TestCorrectness:
    @pytest.mark.parametrize("mk", ALL)
    def test_h2d_byte_exact(self, mk):
        strat = mk()
        host = rand(512, 1)
        dev = np.zeros(512, dtype=np.complex128)
        strat.h2d(host, dev)
        assert np.array_equal(dev, host)

    @pytest.mark.parametrize("mk", ALL)
    def test_d2h_byte_exact(self, mk):
        strat = mk()
        dev = rand(256, 2)
        host = np.zeros(256, dtype=np.complex128)
        strat.d2h(dev, host)
        assert np.array_equal(host, dev)

    @pytest.mark.parametrize("mk", ALL)
    def test_shape_mismatch_rejected(self, mk):
        with pytest.raises(ValueError):
            mk().h2d(np.zeros(4, dtype=complex), np.zeros(8, dtype=complex))

    def test_buffered_capacity_enforced(self):
        strat = BufferedCopy(max_elements=16)
        with pytest.raises(ValueError):
            strat.h2d(np.zeros(32, dtype=complex), np.zeros(32, dtype=complex))

    def test_buffered_staging_size(self):
        assert BufferedCopy(max_elements=128).staging_nbytes == 128 * 16

    def test_buffered_invalid_capacity(self):
        with pytest.raises(ValueError):
            BufferedCopy(max_elements=0)


class TestLogging:
    """A copy is timed where it runs and says how long it took; the caller
    books it as a row, and the ledger's ``arena`` edge reads the rows."""

    def test_records_accumulate(self):
        tel = Telemetry()
        ex = DeviceExecutor(DeviceSpec(memory_bytes=1 << 12),
                            transfer=SyncCopy())
        tel.tracer.attach(ex.timeline)
        host = rand(64, 3)
        buf = ex.alloc(64)
        assert ex.upload(host, buf) >= 0.0
        assert ex.download(buf, host) >= 0.0
        totals = tel.traffic.totals()
        assert totals["arena.h2d"] == {"bytes": 64 * 16, "ops": 1}
        assert totals["arena.d2h"] == {"bytes": 64 * 16, "ops": 1}

    def test_bandwidth(self):
        strat = SyncCopy()
        host = rand(1 << 16, 4)
        dev = np.empty_like(host)
        seconds = strat.h2d(host, dev)
        assert host.nbytes / seconds / 1e9 > 0


class TestRelativeSpeed:
    def test_async_is_much_slower_than_sync(self):
        """The Table 1 effect: per-element initiation dominates."""
        n = 1 << 14
        host = rand(n, 5)
        dev = np.empty_like(host)
        sync, asyn = SyncCopy(), AsyncPerElementCopy()
        t_sync = min(sync.h2d(host, dev) for _ in range(3))
        t_async = asyn.h2d(host, dev)
        assert t_async > 20 * t_sync  # paper reports ~870x at 2^20+

    def test_buffer_is_close_to_sync(self):
        n = 1 << 16
        host = rand(n, 6)
        dev = np.empty_like(host)
        sync = SyncCopy()
        buff = BufferedCopy(max_elements=n)
        t_sync = min(sync.h2d(host, dev) for _ in range(5))
        t_buff = min(buff.h2d(host, dev) for _ in range(5))
        assert t_buff < 10 * t_sync  # same order of magnitude


class TestFactory:
    def test_names(self):
        assert make_strategy("sync").name == "sync"
        assert make_strategy("async").name == "async"
        assert make_strategy("buffer", max_elements=8).name == "buffer"

    def test_buffer_requires_capacity(self):
        with pytest.raises(ValueError):
            make_strategy("buffer")

    def test_unknown(self):
        with pytest.raises(KeyError):
            make_strategy("teleport")
