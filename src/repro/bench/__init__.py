"""Benchmark records, baselines, and the perf regression gate.

The layer above :mod:`repro.telemetry`: where spans and metrics observe a
*single* run, ``repro.bench`` makes runs comparable *across* commits and
machines. Three pieces:

* :mod:`repro.bench.schema` — the ``repro.bench/v1`` record every
  ``benchmarks/bench_*.py`` emits (``results/BENCH_<id>.json``): metric
  repeats, host fingerprint, git rev, rendered tables;
* :mod:`repro.bench.baseline` — committed baselines under
  ``results/baselines/`` and the noise-aware comparator
  (median-of-repeats, per-metric relative tolerance, host-mismatch
  demotion);
* ``python -m repro.bench {check,update,report}`` — the CLI regression
  gate (:mod:`repro.bench.__main__`).

Workflow::

    python benchmarks/run_all.py --skip-slow   # refresh results/BENCH_*.json
    python -m repro.bench check                # gate against baselines
    python -m repro.bench update               # promote current numbers
"""

from .baseline import (
    DEFAULT_BASELINE_DIR,
    DEFAULT_RESULTS_DIR,
    CompareReport,
    MetricComparison,
    compare_directories,
    compare_records,
    discover_results,
    update_baselines,
)
from .schema import (
    SCHEMA_VERSION,
    git_rev,
    host_fingerprint,
    load_result,
    make_result,
    median,
    metric,
    result_path,
    validate,
    write_result,
)

__all__ = [
    "SCHEMA_VERSION",
    "host_fingerprint",
    "git_rev",
    "metric",
    "median",
    "make_result",
    "write_result",
    "load_result",
    "validate",
    "result_path",
    "MetricComparison",
    "CompareReport",
    "compare_records",
    "compare_directories",
    "discover_results",
    "update_baselines",
    "DEFAULT_RESULTS_DIR",
    "DEFAULT_BASELINE_DIR",
]
