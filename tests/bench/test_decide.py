"""Unit tests for repro.bench.decide: corpus lookup, host-fingerprint
gating, probe fallback, and whole-config auto resolution."""

import numpy as np
import pytest

from repro.bench import (
    Decision,
    decide_precision,
    decide_workers,
    find_record,
    load_corpus,
    make_result,
    metric,
    resolve_auto_config,
    result_path,
    write_result,
)
from repro.bench.decide import BYTES_RATIO_GATE, WALL_RATIO_GATE
from repro.bench.schema import host_fingerprint
from repro.core.config import MemQSimConfig


def write_pr1(corpus_dir, *, bytes_ratio=0.50, wall_ratio=0.85, host=None):
    """Drop a synthetic BENCH_PR1 record into ``corpus_dir``."""
    doc = make_result(
        "PR1", title="synthetic precision record",
        metrics={
            "c64_bytes_ratio": metric([bytes_ratio], unit="ratio"),
            "c64_wall_ratio": metric([wall_ratio], unit="ratio"),
        })
    if host is not None:
        doc["host"] = host
    return write_result(doc, result_path(str(corpus_dir), "PR1"))


def foreign_host():
    h = dict(host_fingerprint())
    h["cpu_count"] = (h.get("cpu_count") or 1) + 64
    h["platform"] = "ENIAC-1945"
    return h


class TestCorpusAccess:
    def test_load_corpus_empty_and_missing(self, tmp_path):
        assert load_corpus(tmp_path) == []
        assert load_corpus(tmp_path / "nonexistent") == []

    def test_load_corpus_skips_garbage(self, tmp_path):
        (tmp_path / "BENCH_BAD.json").write_text("{not json")
        write_pr1(tmp_path)
        recs = load_corpus(tmp_path)
        assert [r["experiment"] for r in recs] == ["PR1"]

    def test_find_record_exact_host_hit(self, tmp_path):
        write_pr1(tmp_path)  # make_result stamps this host's fingerprint
        rec = find_record("PR1", tmp_path)
        assert rec is not None
        assert rec["experiment"] == "PR1"

    def test_find_record_rejects_foreign_host(self, tmp_path):
        write_pr1(tmp_path, host=foreign_host())
        assert find_record("PR1", tmp_path) is None

    def test_find_record_unknown_experiment(self, tmp_path):
        write_pr1(tmp_path)
        assert find_record("ZZ9", tmp_path) is None


class TestDecidePrecision:
    def test_corpus_adopts_c64(self, tmp_path):
        write_pr1(tmp_path, bytes_ratio=0.50, wall_ratio=0.85)
        d = decide_precision(tmp_path, allow_probe=False)
        assert (d.knob, d.value, d.source) == ("precision", "c64", "corpus")
        assert "BENCH_PR1" in d.rationale
        assert d.audit_line().startswith("auto-resolve precision=c64 [corpus]")

    def test_corpus_keeps_c128_when_gates_miss(self, tmp_path):
        # bytes fine but c64 measured slower than c128: stay safe
        write_pr1(tmp_path, bytes_ratio=0.50, wall_ratio=1.20)
        d = decide_precision(tmp_path, allow_probe=False)
        assert (d.value, d.source) == ("c128", "corpus")

        write_pr1(tmp_path, bytes_ratio=BYTES_RATIO_GATE + 0.10,
                  wall_ratio=WALL_RATIO_GATE - 0.5)
        d = decide_precision(tmp_path, allow_probe=False)
        assert (d.value, d.source) == ("c128", "corpus")

    def test_foreign_host_falls_back_to_default(self, tmp_path):
        write_pr1(tmp_path, host=foreign_host())
        d = decide_precision(tmp_path, allow_probe=False)
        assert (d.value, d.source) == ("c128", "default")

    def test_empty_corpus_probes(self, tmp_path):
        d = decide_precision(tmp_path, allow_probe=True)
        assert d.knob == "precision"
        assert d.source == "probe"
        assert d.value in ("c64", "c128")
        assert "micro-probe" in d.rationale


class TestDecideWorkers:
    def test_returns_positive_worker_count(self):
        d = decide_workers(MemQSimConfig(compressor="zlib"))
        assert d.knob == "workers"
        assert d.source == "probe"
        assert isinstance(d.value, int) and d.value >= 1


class TestResolveAutoConfig:
    def test_concrete_config_untouched(self, tmp_path):
        cfg = MemQSimConfig(chunk_qubits=4, fuse_gates=False)
        resolved, decisions = resolve_auto_config(cfg, corpus_dir=tmp_path)
        assert resolved is cfg
        assert decisions == []

    def test_all_knobs_closed(self, tmp_path):
        write_pr1(tmp_path)
        cfg = MemQSimConfig(chunk_qubits=4, precision="auto", workers=0,
                            fuse_gates=False)
        assert cfg.needs_auto_resolution()
        resolved, decisions = resolve_auto_config(
            cfg, num_qubits=8, corpus_dir=tmp_path)
        assert not resolved.needs_auto_resolution()
        assert resolved.precision in ("c64", "c128")
        assert resolved.workers >= 1
        assert [d.knob for d in decisions] == ["precision", "workers"]
        resolved.plan_key()  # well-defined after resolution

    @pytest.mark.parametrize("compressor, lossy", [("szlike", True),
                                                   ("zlib", False),
                                                   ("null", False)])
    def test_unset_fusion_follows_the_codec(self, tmp_path, compressor,
                                            lossy):
        cfg = MemQSimConfig(chunk_qubits=4, compressor=compressor)
        assert cfg.fuse_gates is None and cfg.needs_auto_resolution()
        resolved, (d,) = resolve_auto_config(cfg, corpus_dir=tmp_path)
        assert resolved.fuse_gates is lossy
        assert not resolved.needs_auto_resolution()
        assert (d.knob, d.value, d.source) == ("fuse_gates", lossy, "derived")
        assert compressor in d.rationale
        assert resolved.plan_key() == cfg.with_updates(
            fuse_gates=lossy).plan_key()

    def test_decision_round_trips_to_dict(self):
        d = Decision("precision", "c64", "corpus", "because measured")
        assert d.to_dict() == {"knob": "precision", "value": "c64",
                               "source": "corpus",
                               "rationale": "because measured"}
