"""The record writer in ``benchmarks/common.py``: record assembly,
validation, round-trip. A record it refuses is never written, so the bench
script fails and ``benchmarks/run_all.py`` exits 1."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis import Table

COMMON_PY = Path(__file__).resolve().parents[2] / "benchmarks/common.py"


def load_common():
    spec = importlib.util.spec_from_file_location("bench_common", COMMON_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


common = load_common()


def test_host_fingerprint_keys():
    host = common.host_fingerprint()
    assert host["cpu_count"] >= 1
    for key in ("platform", "machine", "python", "implementation"):
        assert isinstance(host[key], str) and host[key]


def test_metric_entry():
    m = common.metric([1.0, 2.0], unit="s")
    assert m == {"values": [1.0, 2.0], "unit": "s", "direction": "lower"}
    assert common.metric(5)["values"] == [5.0]  # bare number wraps
    assert common.seconds(0.5, 0.25) == common.metric([0.5, 0.25], unit="s")
    with pytest.raises(ValueError):
        common.metric([1.0], direction="sideways")
    with pytest.raises(ValueError):
        common.metric([])


def test_make_result_valid_and_normalizing():
    t = Table(["a", "b"], title="demo")
    t.add("x", "1")
    doc = common.make_result(
        "T1", title="transfer", params={"n": 14},
        metrics={"wall_seconds": 0.5,            # bare number
                 "repeats": [1.0, 2.0, 3.0],     # bare repeats
                 "ratio": common.metric(11.9, direction="higher")},
        tables=[t])
    assert common.validate(doc) == []
    assert doc["schema"] == common.SCHEMA_VERSION == "repro.bench/v1"
    assert doc["metrics"]["wall_seconds"]["values"] == [0.5]
    assert doc["metrics"]["repeats"]["values"] == [1.0, 2.0, 3.0]
    assert doc["metrics"]["ratio"]["direction"] == "higher"
    assert doc["tables"][0]["columns"] == ["a", "b"]
    assert doc["tables"][0]["rows"] == [["x", "1"]]
    assert not any("tolerance" in m for m in doc["metrics"].values())


def test_make_result_rejects_bad_experiment_id():
    with pytest.raises(ValueError):
        common.make_result("../evil")
    with pytest.raises(ValueError):
        common.make_result("")


def test_validate_catches_each_error():
    assert common.validate([]) != []
    assert common.validate(common.make_result("X1", metrics={"m": 1.0})) == []
    for mutate, fragment in [
        (lambda d: d.update(schema="v0"), "schema"),
        (lambda d: d.pop("experiment"), "experiment"),
        (lambda d: d["host"].pop("cpu_count"), "host.cpu_count"),
        (lambda d: d["metrics"]["m"].update(values=[]), "values"),
        (lambda d: d["metrics"]["m"].update(direction="up"), "direction"),
        (lambda d: d.update(tables=[{"rows": []}]), "tables[0]"),
    ]:
        bad = common.make_result("X1", metrics={"m": 1.0})
        mutate(bad)
        assert any(fragment in e for e in common.validate(bad)), fragment


def test_write_result_round_trip(tmp_path):
    doc = common.make_result(
        "A2", metrics={"wall_seconds": common.metric(0.1, unit="s")})
    path = common.write_result(doc, str(tmp_path / "BENCH_A2.json"))
    assert path.endswith("BENCH_A2.json")
    with open(path) as fh:
        assert json.load(fh)["metrics"]["wall_seconds"]["unit"] == "s"


def test_write_result_refuses_invalid(tmp_path):
    doc = common.make_result("A2")
    doc["metrics"] = {"m": {"values": []}}
    with pytest.raises(ValueError, match="invalid bench record"):
        common.write_result(doc, str(tmp_path / "BENCH_A2.json"))
    assert list(tmp_path.iterdir()) == []

