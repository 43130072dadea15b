"""Ledger correctness under the parallel codec pool.

The traffic ledger must stay byte-exact when codec work is farmed out to
worker processes: worker-attributed rows have to partition the totals, and
the codec edge totals must match a serial run of the same circuit exactly
(the codec is a pure function of chunk bytes, so parallelism cannot change
how many bytes move — only who moves them).
"""

import numpy as np
import pytest

from repro.circuits import get_workload
from repro.core import MemQSim, MemQSimConfig
from repro.telemetry import Telemetry

WORKERS = 2
CODEC_EDGES = ("codec.raw_in", "codec.compressed_out",
               "codec.compressed_in", "codec.raw_out")


def run_with_ledger(execution, **kw):
    tel = Telemetry()
    cfg = MemQSimConfig(chunk_qubits=4, compressor="zlib",
                        workers=WORKERS if execution == "parallel" else 1,
                        **kw)
    res = MemQSim(cfg, telemetry=tel).run(get_workload("qft", 8))
    return res, tel.traffic


class TestParallelLedgerParity:
    def test_codec_totals_match_serial(self):
        res_s, led_s = run_with_ledger("serial")
        res_p, led_p = run_with_ledger("parallel")
        for edge in CODEC_EDGES:
            e, d = edge.split(".")
            assert led_p.total_bytes(e, d) == led_s.total_bytes(e, d), edge
        # and the runs really were equivalent, not merely equal in traffic
        np.testing.assert_array_equal(res_s.statevector(),
                                      res_p.statevector())

    def test_worker_rows_partition_totals(self):
        _res, led = run_with_ledger("parallel")
        per_worker = led.by_worker()
        workers = [w for w in per_worker if w != 0]
        assert workers, "parallel run should attribute bytes to workers"
        for edge in CODEC_EDGES:
            total = sum(row.get(edge, 0) for row in per_worker.values())
            e, d = edge.split(".")
            assert total == led.total_bytes(e, d), edge

    def test_stage_attribution_sums_to_totals(self):
        _res, led = run_with_ledger("parallel")
        by_stage = led.by_stage()
        for edge in CODEC_EDGES:
            e, d = edge.split(".")
            total = sum(row.get(edge, 0) for row in by_stage.values())
            assert total == led.total_bytes(e, d), edge

    def test_arena_totals_match_serial(self):
        # every group pass uploads and downloads through the one executor,
        # whoever ran the codec
        _res_s, led_s = run_with_ledger("serial")
        _res_p, led_p = run_with_ledger("parallel")
        for direction in ("h2d", "d2h"):
            assert led_p.total_bytes("arena", direction) == \
                led_s.total_bytes("arena", direction) > 0
