"""HTML run report: structural smoke over a real monitored run."""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

import pytest

from repro.analysis import render_html, write_html
from repro.circuits import qft
from repro.core import MemQSim
from repro.telemetry import Telemetry

#: every report must contain these section headings, in order
SECTIONS = [
    "Pipeline stage timeline (modelled)",
    "Memory over time",
    "Per-chunk compression",
    "Metrics",
]


@pytest.fixture(scope="module")
def monitored_result(tight_config_module):
    cfg = tight_config_module.with_updates(monitor_interval_ms=2.0)
    return MemQSim(cfg, telemetry=Telemetry()).run(qft(8))


@pytest.fixture(scope="module")
def tight_config_module():
    from repro.core import MemQSimConfig
    from repro.device import DeviceSpec, HostSpec

    return MemQSimConfig(
        chunk_qubits=4,
        compressor="zlib",
        device=DeviceSpec(memory_bytes=(1 << 6) * 16 * 4),
        host=HostSpec(memory_bytes=1 << 26),
    )


def _svgs(doc: str):
    return re.findall(r"<svg.*?</svg>", doc, re.S)


def test_report_structure(monitored_result):
    doc = render_html(monitored_result, title="golden smoke")
    assert doc.startswith("<!doctype html>")
    assert "<title>golden smoke</title>" in doc
    pos = -1
    for section in SECTIONS:
        nxt = doc.index(f"<h2>{section}</h2>")
        assert nxt > pos  # headings present, in order
        pos = nxt
    # self-contained: no external fetches of any kind
    for marker in ("http://", "https://", "<script", "<link", "@import"):
        assert marker not in doc, marker


def test_report_svgs_well_formed(monitored_result):
    doc = render_html(monitored_result)
    svgs = _svgs(doc)
    # light + dark stage timelines, one memory chart, and the what-if cache
    # curve (every run's access trace is its pass schedule)
    assert len(svgs) == 4
    assert 'aria-label="LRU hit rate vs cache capacity"' in svgs[3]
    for svg in svgs:
        ET.fromstring(svg)  # raises on malformed markup
    timeline = svgs[0]
    assert timeline.count("<rect") > 0
    assert timeline.count("<title>") == timeline.count("<rect")  # tooltips
    memory = svgs[2]
    assert memory.count("<polyline") == 3  # rss, store, arena


def test_report_renders_real_numbers(monitored_result):
    doc = render_html(monitored_result)
    # memory legend + peaks from the run's own monitor series
    assert "process RSS" in doc
    assert "device arena" in doc
    assert "no resource timeline captured" not in doc
    # the headline time is the stopwatch; the Gantt's makespan says modelled
    assert "online (stopwatch)" in doc and "pipelined" not in doc
    assert '<p class="note">modelled: ' in doc
    # per-chunk table rows for each chunk of the 8-qubit / 4-chunk layout
    assert doc.count("zero chunk") <= 16
    assert "derived gauge" in doc


def test_report_without_monitor_degrades(tight_config_module):
    res = MemQSim(tight_config_module, telemetry=Telemetry()).run(qft(8))
    doc = render_html(res)
    assert "no resource timeline captured" in doc
    # timelines and the what-if curve still render, no memory chart
    assert len(_svgs(doc)) == 3
    assert "Memory over time" in doc and "process RSS" not in doc


def test_dark_mode_palette_scoped(monitored_result):
    doc = render_html(monitored_result)
    assert "prefers-color-scheme: dark" in doc
    # light and dark series hexes both present (kernel stage, slot 3)
    assert "#1baf7a" in doc and "#199e70" in doc


def test_write_html(monitored_result, tmp_path):
    out = tmp_path / "run.report.html"
    nb = write_html(monitored_result, str(out))
    assert out.stat().st_size == nb > 10_000


def test_report_cli(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "r.html"
    assert main(["report", "qft", "-n", "8", "--chunk-qubits", "4",
                 "-o", str(out)]) == 0
    assert "HTML report written" in capsys.readouterr().out
    assert out.stat().st_size > 10_000


def test_entropy_note_lists_the_fixed_length_stage():
    # the note is built from whatever blob_entropy sniffs: a dense state's
    # chunks are bit-packed, and the report says so with no code of its own
    from repro.circuits import get_workload
    from repro.device import DeviceSpec

    result = MemQSim(chunk_qubits=8, compressor="szlike",
                     compressor_options={"error_bound": 1e-6},
                     device=DeviceSpec(memory_bytes=16 * 1024)).run(
                         get_workload("supremacy", 10))
    note = re.search(r"entropy stage by chunk — ([^<]*)<",
                     render_html(result)).group(1)
    assert re.search(r"fixed: [1-9]", note)
