"""Shared helpers for the benchmark harness.

Every bench file follows the same pattern:

* ``pytest benchmarks/ --benchmark-only`` runs the pytest-benchmark timings
  at CI-friendly sizes;
* ``python benchmarks/bench_<exp>.py`` regenerates the corresponding paper
  table/figure at full size and prints it (set ``REPRO_FULL=1`` to run the
  paper's exact qubit counts where that is tractable on one machine), and
  emits the canonical ``results/BENCH_<id>.json`` record via
  :func:`emit_result`.

A record is what one run measured; its gate is its bench file's pytest
asserts. A speed claim across commits is BENCH_E2E's paired protocol
(``benchmarks/e2e``), never two records read side by side.
EXPERIMENTS.md records the paper-vs-measured comparison for each.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import time
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


# -- the record writer ---------------------------------------------------------

#: the ``schema`` of every ``results/BENCH_<id>.json``
SCHEMA_VERSION = "repro.bench/v1"

_DIRECTIONS = ("lower", "higher")

#: where BENCH_<id>.json records land (repo's results/ unless overridden)
RESULTS_DIR = os.environ.get(
    "REPRO_RESULTS_DIR",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "results"))


def host_fingerprint() -> dict:
    """The machine a record was measured on: its numbers compare only
    with numbers from like hardware."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def git_rev():
    """The commit of the checkout these benchmarks run from, or ``None``
    outside a work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             cwd=os.path.dirname(os.path.abspath(__file__)),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def metric(values, unit: str = "", direction: str = "lower") -> dict:
    """One metric entry: the repeats measured (a bare number is one), its
    unit, and which way is better (``lower`` for timings and bytes,
    ``higher`` for ratios and hit rates)."""
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}")
    if isinstance(values, (int, float)):
        values = [values]
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("a metric needs at least one measurement")
    return {"values": vals, "unit": unit, "direction": direction}


def seconds(*values):
    """A metric entry for timing repeats (lower is better)."""
    return metric(list(values), unit="s", direction="lower")


def _serialize_table(table) -> dict:
    """Accept a :class:`repro.analysis.Table` or an already-plain dict."""
    if isinstance(table, dict):
        return table
    return {"title": getattr(table, "title", ""),
            "columns": list(table.columns),
            "rows": [list(r) for r in table.rows]}


def make_result(experiment, *, title="", params=None, metrics=None,
                tables=None, extra=None) -> dict:
    """Assemble one record (a plain JSON-able dict).

    ``metrics`` values may be :func:`metric` entries, bare numbers, or
    lists of repeats; the latter two are wrapped as lower-is-better
    (right for timings; pass explicit entries for ratios).
    """
    if not experiment or not experiment.replace("_", "").isalnum():
        raise ValueError(f"bad experiment id: {experiment!r}")
    entries = {
        name: metric(m["values"], unit=m.get("unit", ""),
                     direction=m.get("direction", "lower"))
        if isinstance(m, dict) else metric(m)
        for name, m in (metrics or {}).items()}
    return {
        "schema": SCHEMA_VERSION,
        "experiment": experiment,
        "title": title,
        "created_unix": time.time(),
        "host": host_fingerprint(),
        "git_rev": git_rev(),
        "params": dict(params or {}),
        "metrics": entries,
        "tables": [_serialize_table(t) for t in (tables or [])],
        "extra": dict(extra or {}),
    }


def validate(doc) -> list:
    """Schema check; returns a list of human-readable errors (empty = ok)."""
    if not isinstance(doc, dict):
        return [f"record is {type(doc).__name__}, expected object"]
    errors = []

    def need(key, types):
        val = doc.get(key)
        if val is None or not isinstance(val, types):
            names = "/".join(t.__name__ for t in (
                types if isinstance(types, tuple) else (types,)))
            errors.append(f"{key}: missing or not {names}")
            return None
        return val

    if doc.get("schema") != SCHEMA_VERSION:
        errors.append(
            f"schema: expected {SCHEMA_VERSION!r}, got {doc.get('schema')!r}")
    need("experiment", str)
    need("created_unix", (int, float))
    host = need("host", dict)
    if host is not None:
        errors += [f"host.{k}: missing" for k in ("cpu_count", "platform",
                                                    "python")
                   if k not in host]
    need("params", dict)
    for name, m in (need("metrics", dict) or {}).items():
        if not isinstance(m, dict):
            errors.append(f"metrics[{name}]: not an object")
            continue
        vals = m.get("values")
        if (not isinstance(vals, list) or not vals
                or not all(isinstance(v, (int, float)) for v in vals)):
            errors.append(
                f"metrics[{name}].values: need a non-empty list of numbers")
        if m.get("direction") not in _DIRECTIONS:
            errors.append(
                f"metrics[{name}].direction: must be one of {_DIRECTIONS}")
    tables = doc.get("tables", [])
    if not isinstance(tables, list):
        errors.append("tables: not a list")
    else:
        errors += [f"tables[{i}]: need columns + rows"
                   for i, t in enumerate(tables)
                   if not isinstance(t, dict)
                   or "columns" not in t or "rows" not in t]
    return errors


def write_result(doc: dict, path: str) -> str:
    """Validate then write one record; returns the absolute path. An
    invalid record raises ``ValueError`` and writes nothing, so the bench
    script fails and ``run_all.py`` exits 1."""
    errors = validate(doc)
    if errors:
        raise ValueError(f"refusing to write invalid bench record: {errors}")
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, default=str)
        fh.write("\n")
    return path


def emit_result(experiment, *, title="", params=None, metrics=None,
                tables=None, extra=None):
    """Write one canonical ``results/BENCH_<experiment>.json`` record.

    :func:`make_result` + :func:`write_result` into the results directory
    (override with ``REPRO_RESULTS_DIR``), printing where the record went.
    ``tables`` may hold :class:`repro.analysis.Table` objects directly.
    """
    params = dict(params or {})
    params.setdefault("full", FULL)
    doc = make_result(experiment, title=title, params=params,
                      metrics=metrics, tables=tables, extra=extra)
    path = write_result(
        doc, os.path.join(RESULTS_DIR, f"BENCH_{experiment}.json"))
    print(f"bench record written: {path}")
    return path
