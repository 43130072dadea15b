"""Shared helpers for the benchmark harness.

Every bench file follows the same pattern:

* ``pytest benchmarks/ --benchmark-only`` runs the pytest-benchmark timings
  at CI-friendly sizes;
* ``python benchmarks/bench_<exp>.py`` regenerates the corresponding paper
  table/figure at full size and prints it (set ``REPRO_FULL=1`` to run the
  paper's exact qubit counts where that is tractable on one machine), and
  emits the canonical ``results/BENCH_<id>.json`` record via
  :func:`emit_result` so ``python -m repro.bench check`` can gate the
  numbers against committed baselines.

EXPERIMENTS.md records the paper-vs-measured comparison for each.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager

sys.path.insert(0, os.path.dirname(__file__))

import numpy as np

from repro.circuits import Circuit, qft, supremacy_brickwork
from repro.core import MemQSimConfig
from repro.device import DeviceSpec, HostSpec
from repro.telemetry import NULL_TELEMETRY, Telemetry

FULL = os.environ.get("REPRO_FULL", "") not in ("", "0")

#: set REPRO_TRACE_DIR=/some/dir to dump a Chrome trace + metrics snapshot
#: per benchmark that opts in via :func:`bench_telemetry`
TRACE_DIR = os.environ.get("REPRO_TRACE_DIR", "")


@contextmanager
def bench_telemetry(name: str):
    """Opt-in per-benchmark telemetry capture.

    Yields a :class:`~repro.telemetry.Telemetry` to pass into ``MemQSim``.
    Disabled (and free) unless ``REPRO_TRACE_DIR`` is set, in which case
    ``<dir>/<name>.trace.json`` and ``<dir>/<name>.metrics.json`` are
    written when the block exits.
    """
    if not TRACE_DIR:
        yield NULL_TELEMETRY
        return
    os.makedirs(TRACE_DIR, exist_ok=True)
    tel = Telemetry()
    try:
        yield tel
    finally:
        tel.tracer.write_chrome_trace(
            os.path.join(TRACE_DIR, f"{name}.trace.json"))
        tel.metrics.write_json(
            os.path.join(TRACE_DIR, f"{name}.metrics.json"))


def quartile_range(values) -> float:
    """Distance between the quartiles of ``values``: the run-to-run spread
    an A/B gap has to exceed before it says anything."""
    import statistics

    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def paired_ratio(numerators, denominators) -> dict:
    """Median and quartiles of ``a_i / b_i`` over interleaved repeats: each
    pair ran back to back, so drift that moves both arms cancels."""
    import statistics

    ratios = [a / b for a, b in zip(numerators, denominators)]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return {"median": statistics.median(ratios), "q1": q1, "q3": q3}


def circuit_of(family: str, n: int) -> Circuit:
    """``qft(n)`` for a ``qft*`` family, else BENCH_E2E's dense_lossy
    circuit: a seeded RY on every qubit (45-135 degrees), then the
    generator's fixed brickwork."""
    if family.startswith("qft"):
        return qft(n)
    rng = np.random.default_rng(0)
    circuit = Circuit(n, name=f"tilted_supremacy{n}")
    for qubit, angle in enumerate(rng.uniform(math.pi / 4, 3 * math.pi / 4,
                                              size=n)):
        circuit.ry(float(angle), qubit)
    return circuit.compose(supremacy_brickwork(n, depth=6))


def state_payload(num_qubits: int, seed: int = 1) -> np.ndarray:
    """A random dense state-vector payload (what Table 1 ships over the bus)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return v / np.linalg.norm(v)


def tight_config(chunk_qubits: int = 5, groups_of: int = 2, **kw) -> MemQSimConfig:
    """A config whose device forces chunk streaming (not whole-vector runs)."""
    dev_bytes = (1 << (chunk_qubits + groups_of.bit_length() - 1)) * 16 * 2
    defaults = dict(
        chunk_qubits=chunk_qubits,
        compressor="szlike",
        compressor_options={"error_bound": 1e-6},
        device=DeviceSpec(memory_bytes=dev_bytes),
        host=HostSpec(memory_bytes=1 << 30),
    )
    defaults.update(kw)
    return MemQSimConfig(**defaults)


def print_banner(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


#: where BENCH_<id>.json records land (repo's results/ unless overridden)
RESULTS_DIR = os.environ.get(
    "REPRO_RESULTS_DIR",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "results"))


def seconds(*values):
    """A ``repro.bench`` metric entry for timing repeats (lower is better).

    The ``s`` unit matters: the comparator applies an absolute noise floor
    to second-unit metrics so sub-millisecond jitter never gates.
    """
    from repro.bench import metric

    return metric(list(values), unit="s", direction="lower")


def emit_result(experiment, *, title="", params=None, metrics=None,
                tables=None, extra=None):
    """Write one canonical ``results/BENCH_<experiment>.json`` record.

    Thin wrapper over :func:`repro.bench.make_result` +
    :func:`repro.bench.write_result` that fills in the results directory
    (override with ``REPRO_RESULTS_DIR``) and prints where the record
    went. ``metrics`` values may be bare numbers / repeat lists (wrapped
    as lower-is-better) or full :func:`repro.bench.metric` entries;
    ``tables`` may hold :class:`repro.analysis.Table` objects directly.
    """
    from repro.bench import make_result, result_path, write_result

    params = dict(params or {})
    params.setdefault("full", FULL)
    doc = make_result(experiment, title=title, params=params,
                      metrics=metrics, tables=tables, extra=extra)
    path = write_result(doc, result_path(RESULTS_DIR, experiment))
    print(f"bench record written: {path}")
    return path
