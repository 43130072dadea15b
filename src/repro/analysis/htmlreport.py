"""Self-contained HTML run report: trace + metrics + resource timeline.

One dependency-free HTML file per run (inline CSS + SVG, no JS libraries,
opens from ``file://``) with:

* headline stat tiles — wall time, the online stage's stopwatch time,
  compression ratio, peak memory vs dense;
* an SVG **stage timeline**: the measured pipeline events placed on their
  resource lanes by the overlap model (the paper's Fig. 1 — a *modelled*
  what-if, labelled so; see :mod:`repro.analysis.pipeline_model`);
* an SVG **memory-over-time curve** from the run's
  :class:`~repro.telemetry.monitor.ResourceMonitor` series (the shape of
  the paper's Fig. 2) — RSS, compressed store, device arena;
* the **per-chunk compression-ratio table** and the metrics snapshot
  (counters + derived gauges);
* the **memory-traffic ledger** (bytes per tier edge, per-stage
  attribution) and, when an access trace was recorded, the exact
  **LRU hit-rate-vs-capacity what-if curve**.

Reachable as ``python -m repro report <workload>`` or from Python::

    from repro.analysis.htmlreport import write_html
    write_html(result, "run.html")

Colors follow a fixed categorical order with light/dark variants (CSS
custom properties; dark mode follows ``prefers-color-scheme``); every mark
carries a native ``<title>`` tooltip and every chart has a table fallback.
"""

from __future__ import annotations

import html
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .pipeline_model import PipelineModel, ScheduledEvent
from .report import format_bytes, format_seconds

__all__ = ["render_html", "write_html"]

#: fixed categorical order (validated palette; one slot per pipeline stage)
_STAGE_COLORS = {
    "decompress": ("#2a78d6", "#3987e5"),   # blue
    "h2d": ("#eb6834", "#d95926"),          # orange
    "kernel": ("#1baf7a", "#199e70"),       # aqua
    "d2h": ("#eda100", "#c98500"),          # yellow
    "compress": ("#e87ba4", "#d55181"),     # magenta
    "cpu_update": ("#008300", "#008300"),   # green
    "disk_write": ("#7f4fc9", "#9a6ee0"),   # violet
    "disk_read": ("#5c3a94", "#b393ec"),    # dark violet
    "cache_hit": ("#8a8a8a", "#a6a6a6"),    # grey
    "cache_miss": ("#5e5e5e", "#c4c4c4"),   # dark grey
}

#: memory-curve series (first three slots: all-pairs safe)
_MEM_SERIES = (
    ("rss_bytes", "process RSS", "slot1"),
    ("store_bytes", "compressed store", "slot2"),
    ("arena_bytes", "device arena", "slot3"),
)

_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0 auto; padding: 24px; max-width: 1080px;
  background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
body {
  --surface-1: #fcfcfb; --surface-2: #f3f2ef;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --grid: #e3e2de; --slot1: #2a78d6; --slot2: #eb6834; --slot3: #1baf7a;
}
@media (prefers-color-scheme: dark) {
  body {
    --surface-1: #1a1a19; --surface-2: #262625;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --grid: #3a3a38; --slot1: #3987e5; --slot2: #d95926; --slot3: #199e70;
  }
  .light-only { display: none; }
}
@media not (prefers-color-scheme: dark) { .dark-only { display: none; } }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; }
.sub { color: var(--text-secondary); margin: 0 0 16px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.tile {
  background: var(--surface-2); border-radius: 8px; padding: 10px 16px;
  min-width: 130px;
}
.tile .v { font-size: 20px; font-weight: 600; }
.tile .l { color: var(--text-secondary); font-size: 12px; }
table { border-collapse: collapse; margin: 8px 0; }
th, td { text-align: right; padding: 3px 12px 3px 0; }
th { color: var(--text-secondary); font-weight: 500;
     border-bottom: 1px solid var(--grid); }
th:first-child, td:first-child { text-align: left; }
.legend { display: flex; gap: 16px; flex-wrap: wrap; margin: 6px 0;
          color: var(--text-secondary); font-size: 12px; }
.legend .sw { display: inline-block; width: 10px; height: 10px;
              border-radius: 3px; margin-right: 5px; vertical-align: -1px; }
svg { max-width: 100%; height: auto; }
svg text { fill: var(--text-secondary); font: 11px system-ui, sans-serif; }
.note { color: var(--text-secondary); font-style: italic; }
details { margin: 8px 0; }
"""


def _esc(s: Any) -> str:
    return html.escape(str(s), quote=True)


def _fmt(v: float) -> str:
    if isinstance(v, float) and not v.is_integer():
        return f"{v:g}"
    return f"{int(v):,}"


# -- stage timeline (SVG Gantt) ------------------------------------------------


def _svg_timeline(scheduled: Sequence[ScheduledEvent], makespan: float,
                  dark: bool, max_events: int) -> str:
    lanes: List[str] = []
    for s in scheduled:
        if s.resource not in lanes:
            lanes.append(s.resource)
    lane_h, gap, left, top = 22, 2, 110, 8
    width = 960
    plot_w = width - left - 16
    height = top + len(lanes) * (lane_h + gap) + 28
    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="pipeline stage timeline">'
    ]
    for i, lane in enumerate(lanes):
        y = top + i * (lane_h + gap)
        parts.append(
            f'<text x="{left - 8}" y="{y + lane_h / 2 + 4}" '
            f'text-anchor="end">{_esc(lane)}</text>')
        parts.append(
            f'<line x1="{left}" y1="{y + lane_h + 1}" x2="{left + plot_w}" '
            f'y2="{y + lane_h + 1}" stroke="var(--grid)" '
            f'stroke-width="0.5"/>')
    shown = scheduled[:max_events]
    for s in shown:
        stage = s.stage.value
        color = _STAGE_COLORS.get(stage, ("#888", "#aaa"))[1 if dark else 0]
        li = lanes.index(s.resource)
        x = left + s.start / makespan * plot_w
        w = max(1.0, (s.end - s.start) / makespan * plot_w)
        y = top + li * (lane_h + gap)
        tip = (f"{stage} group={s.group} "
               f"{format_seconds(s.seconds)} "
               f"@ {format_seconds(s.start)}")
        parts.append(
            f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" height="{lane_h}" '
            f'rx="2" fill="{color}" stroke="var(--surface-1)" '
            f'stroke-width="1"><title>{_esc(tip)}</title></rect>')
    axis_y = top + len(lanes) * (lane_h + gap) + 14
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = left + frac * plot_w
        parts.append(f'<text x="{x:.0f}" y="{axis_y}" text-anchor="middle">'
                     f'{_esc(format_seconds(makespan * frac))}</text>')
    parts.append("</svg>")
    note = ""
    if len(scheduled) > max_events:
        note = (f'<p class="note">showing the first {max_events} of '
                f'{len(scheduled)} events</p>')
    return "".join(parts) + note


def _timeline_section(result, model: Optional[PipelineModel],
                      max_events: int) -> str:
    hops = result.timeline.rows
    if not hops:
        return '<p class="note">no pipeline events recorded</p>'
    model = model if model is not None else PipelineModel()
    scheduled, makespan = model.schedule(hops)
    if makespan <= 0:
        return '<p class="note">zero-length schedule</p>'
    legend = "".join(
        f'<span><span class="sw light-only" style="background:{lc}"></span>'
        f'<span class="sw dark-only" style="background:{dc}"></span>'
        f'{_esc(name)}</span>'
        for name, (lc, dc) in _STAGE_COLORS.items()
        if any(s.stage.value == name for s in scheduled))
    breakdown = result.stage_breakdown
    rows = "".join(
        f"<tr><td>{_esc(k)}</td><td>{_esc(format_seconds(v))}</td>"
        f"<td>{v / max(sum(breakdown.values()), 1e-12) * 100:.1f}%</td></tr>"
        for k, v in sorted(breakdown.items(), key=lambda kv: -kv[1]))
    table = (f'<details><summary>stage totals (table view)</summary>'
             f'<table><tr><th>stage</th><th>total</th><th>share</th></tr>'
             f'{rows}</table></details>')
    note = (f'<p class="note">modelled: the measured hops replayed on the '
            f'overlap model\'s lanes, makespan '
            f'{_esc(format_seconds(makespan))}; the '
            f'run\'s stopwatch says '
            f'{_esc(format_seconds(result.online_seconds))}</p>')
    light = _svg_timeline(scheduled, makespan, dark=False,
                          max_events=max_events)
    dark = _svg_timeline(scheduled, makespan, dark=True,
                         max_events=max_events)
    return (f'{note}<div class="legend">{legend}</div>'
            f'<div class="light-only">{light}</div>'
            f'<div class="dark-only">{dark}</div>{table}')


# -- memory-over-time curve ----------------------------------------------------


def _poly(points: List[Tuple[float, float]]) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in points)


def _memory_section(timeline: Optional[Dict[str, Any]]) -> str:
    if not timeline or not timeline.get("num_samples"):
        return ('<p class="note">no resource timeline captured — run with '
                '<code>--monitor</code> (CLI) or '
                '<code>monitor_interval_ms&gt;0</code> (config) to record '
                'the memory-over-time curve.</p>')
    series = timeline["series"]
    ts = series["t"]
    t0, t1 = ts[0], ts[-1]
    span = max(t1 - t0, 1e-9)
    peak = max(max(series[k], default=0.0) for k, _, _ in _MEM_SERIES)
    peak = max(peak, 1.0)
    width, height, left, top, bottom = 960, 220, 70, 10, 24
    plot_w, plot_h = width - left - 16, height - top - bottom

    def xy(i: int, key: str) -> Tuple[float, float]:
        x = left + (ts[i] - t0) / span * plot_w
        y = top + plot_h - (series[key][i] / peak) * plot_h
        return x, y

    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'aria-label="memory over time">']
    for frac in (0.0, 0.5, 1.0):
        y = top + plot_h - frac * plot_h
        parts.append(f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" '
                     f'y2="{y:.1f}" stroke="var(--grid)" '
                     f'stroke-width="0.5"/>')
        parts.append(f'<text x="{left - 6}" y="{y + 4:.1f}" '
                     f'text-anchor="end">'
                     f'{_esc(format_bytes(peak * frac))}</text>')
    for key, label, slot in _MEM_SERIES:
        pts = [xy(i, key) for i in range(len(ts))]
        parts.append(f'<polyline points="{_poly(pts)}" fill="none" '
                     f'stroke="var(--{slot})" stroke-width="2" '
                     f'stroke-linejoin="round">'
                     f'<title>{_esc(label)}</title></polyline>')
        for i in (len(ts) // 2, len(ts) - 1):
            x, y = pts[i]
            tip = (f"{label}: {format_bytes(series[key][i])} "
                   f"@ {format_seconds(ts[i] - t0)}")
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" '
                         f'fill="var(--{slot})" stroke="var(--surface-1)" '
                         f'stroke-width="2"><title>{_esc(tip)}</title>'
                         f'</circle>')
    for frac in (0.0, 0.5, 1.0):
        x = left + frac * plot_w
        parts.append(f'<text x="{x:.0f}" y="{height - 6}" '
                     f'text-anchor="middle">'
                     f'{_esc(format_seconds(span * frac))}</text>')
    parts.append("</svg>")
    legend = "".join(
        f'<span><span class="sw" style="background:var(--{slot})"></span>'
        f'{_esc(label)}</span>' for _, label, slot in _MEM_SERIES)
    peaks = timeline.get("peaks", {})
    rows = "".join(
        f"<tr><td>{_esc(label)}</td>"
        f"<td>{_esc(format_bytes(peaks.get(key, 0.0)))}</td></tr>"
        for key, label, _ in _MEM_SERIES)
    extra = "".join(
        f"<tr><td>{_esc(k)}</td><td>{_fmt(v)}</td></tr>"
        for k, v in sorted(peaks.items())
        if k not in {s[0] for s in _MEM_SERIES})
    table = (f'<details><summary>peaks (table view)</summary>'
             f'<table><tr><th>series</th><th>peak</th></tr>{rows}{extra}'
             f'</table></details>')
    cadence = (f'<p class="sub">{timeline["num_samples"]} samples @ '
               f'{timeline["interval_ms"]:g} ms</p>')
    return f'<div class="legend">{legend}</div>{"".join(parts)}{table}{cadence}'


# -- compression + metrics tables ----------------------------------------------


def _compression_section(result, max_rows: int) -> str:
    store = result.store  # a cache layer flushes + delegates transparently
    layout = store.layout
    chunk_bytes = layout.chunk_nbytes
    rows, shown = [], 0
    for k in range(layout.num_chunks):
        blob = store.get_blob(k)
        if blob is None:
            continue
        if shown >= max_rows:
            break
        ratio = chunk_bytes / max(len(blob), 1)
        zero = " (zero chunk)" if store.is_zero_chunk(k) else ""
        rows.append(f"<tr><td>{k}</td>"
                    f"<td>{_esc(format_bytes(chunk_bytes))}</td>"
                    f"<td>{_esc(format_bytes(len(blob)))}</td>"
                    f"<td>{ratio:.1f}x{zero}</td></tr>")
        shown += 1
    note = ""
    if layout.num_chunks > max_rows:
        note = (f'<p class="note">first {max_rows} of {layout.num_chunks} '
                f'chunks</p>')
    # Entropy-stage breakdown across *all* chunks, sniffed from blob
    # headers (SZL1-framed codecs only; others show nothing here).
    from ..compression.szlike import blob_entropy
    choices: dict = {}
    for k in range(layout.num_chunks):
        blob = store.get_blob(k)
        if blob is None:
            continue
        choice = blob_entropy(blob)
        if choice is not None:
            choices[choice] = choices.get(choice, 0) + 1
    if choices:
        parts = ", ".join(f"{name}: {cnt}" for name, cnt in sorted(choices.items()))
        note += f'<p class="note">entropy stage by chunk — {_esc(parts)}</p>'
    return (f'<table><tr><th>chunk</th><th>dense</th><th>compressed</th>'
            f'<th>ratio</th></tr>{"".join(rows)}</table>{note}')


def _compile_section(result) -> str:
    cr = getattr(result, "compile_report", None)
    if cr is None:
        return ('<p class="note">no compile report on this result '
                '(built outside MemQSim.run).</p>')
    rows = [
        ("fusion", "on" if cr.fusion_enabled else "off"),
        ("gates in", _fmt(cr.gates_in)),
        ("ops out", _fmt(cr.ops_out)),
        ("fusion ratio", f"{cr.fusion_ratio:.2f}x"),
        ("1q runs folded", _fmt(cr.fused_1q)),
        ("diagonal runs merged", _fmt(cr.merged_diagonals)),
        ("windows fused", _fmt(cr.fused_windows)),
        ("widest window", f"{cr.widest_window} qubits"),
        ("predicted kernel", format_seconds(cr.predicted_kernel_seconds)),
        ("gate stages", _fmt(cr.num_gate_stages)),
        ("plan direction", cr.plan_direction),
        ("compile time", format_seconds(cr.seconds)),
    ]
    if cr.swaps_hoisted:
        # why "gates in" is short of the circuit's gate count
        rows.insert(1, ("swaps hoisted",
                        f"{cr.swaps_hoisted} (front permutation "
                        f"{list(cr.front_permutation)}, absorbed by "
                        f"|0...0>)"))
    body = "".join(f"<tr><td>{_esc(k)}</td><td>{_esc(v)}</td></tr>"
                   for k, v in rows)
    return f"<table><tr><th>compile</th><th>value</th></tr>{body}</table>"


def _metrics_section(result) -> str:
    if not result.telemetry.enabled:
        return ('<p class="note">telemetry was disabled for this run — '
                'no metrics snapshot.</p>')
    snap = result.metrics_snapshot()
    derived = snap.get("derived", {})
    def _dval(v):
        if v is None:
            return "-"
        # rate-style gauges (bytes/s) read better with thousands grouping
        return f"{v:,.0f}" if v >= 1000 else f"{v:.3f}"

    drows = "".join(
        f"<tr><td>{_esc(k)}</td><td>{_dval(v)}</td></tr>"
        for k, v in sorted(derived.items()))
    crows = "".join(
        f"<tr><td>{_esc(k)}</td><td>{_fmt(v)}</td></tr>"
        for k, v in sorted(snap.get("counters", {}).items()) if v)
    out = ""
    if drows:
        out += (f'<table><tr><th>derived gauge</th><th>value</th></tr>'
                f'{drows}</table>')
    out += (f'<details><summary>non-zero counters</summary>'
            f'<table><tr><th>counter</th><th>value</th></tr>{crows}</table>'
            f'</details>')
    return out


def _traffic_section(result) -> str:
    """Per-stage byte movement from the run's traffic ledger."""
    ledger = getattr(result.telemetry, "traffic", None)
    if ledger is None:
        return ('<p class="note">no traffic ledger on this run '
                '(telemetry disabled).</p>')
    totals = ledger.totals()
    if not totals:
        return '<p class="note">the ledger recorded no byte movement.</p>'
    trows = "".join(
        f"<tr><td>{_esc(edge)}</td>"
        f"<td>{_esc(format_bytes(v['bytes']))}</td>"
        f"<td>{_fmt(v['ops'])}</td></tr>"
        for edge, v in totals.items())
    by_stage = ledger.by_stage()
    edges = sorted({e for row in by_stage.values() for e in row})
    head = "".join(f"<th>{_esc(e)}</th>" for e in edges)
    srows = []
    for stage, row in by_stage.items():
        label = "init / queries" if stage < 0 else f"stage {stage}"
        cells = "".join(
            f"<td>{_esc(format_bytes(row[e])) if e in row else '-'}</td>"
            for e in edges)
        srows.append(f"<tr><td>{_esc(label)}</td>{cells}</tr>")
    return (f'<table><tr><th>tier edge</th><th>bytes</th><th>ops</th></tr>'
            f'{trows}</table>'
            f'<details><summary>per-stage attribution</summary>'
            f'<table><tr><th>stage</th>{head}</tr>{"".join(srows)}</table>'
            f'</details>')


def _memtrace_section(result) -> str:
    """Hit-rate-vs-capacity curve from the run's access trace."""
    trace = result.access_trace()
    if not trace:
        return ('<p class="note">no access trace: the result carries no '
                'pass schedule (a run of <code>MemQSim</code> does) to '
                'draw the what-if cache curve from.</p>')
    from .memtrace import hit_rate_curve

    caps, rates = hit_rate_curve(trace)
    if not caps:
        return '<p class="note">trace holds no read accesses.</p>'
    width, height, left, top, bottom = 960, 200, 70, 10, 24
    plot_w, plot_h = width - left - 16, height - top - bottom
    cmax = max(caps[-1], 1)
    pts = [(left + c / cmax * plot_w,
            top + plot_h - r * plot_h) for c, r in zip(caps, rates)]
    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'aria-label="LRU hit rate vs cache capacity">']
    for frac in (0.0, 0.5, 1.0):
        y = top + plot_h - frac * plot_h
        parts.append(f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" '
                     f'y2="{y:.1f}" stroke="var(--grid)" '
                     f'stroke-width="0.5"/>')
        parts.append(f'<text x="{left - 6}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{frac * 100:.0f}%</text>')
    parts.append(f'<polyline points="{_poly(pts)}" fill="none" '
                 f'stroke="var(--slot1)" stroke-width="2" '
                 f'stroke-linejoin="round">'
                 f'<title>exact LRU hit rate (stack distance)</title>'
                 f'</polyline>')
    for i in (len(pts) // 2, len(pts) - 1):
        x, y = pts[i]
        tip = f"capacity {caps[i]} chunks: {rates[i] * 100:.1f}% hits"
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" '
                     f'fill="var(--slot1)" stroke="var(--surface-1)" '
                     f'stroke-width="2"><title>{_esc(tip)}</title></circle>')
    for frac in (0.0, 0.5, 1.0):
        x = left + frac * plot_w
        parts.append(f'<text x="{x:.0f}" y="{height - 6}" '
                     f'text-anchor="middle">{cmax * frac:.0f} chunks</text>')
    parts.append("</svg>")
    step = max(1, len(caps) // 16)
    rows = "".join(
        f"<tr><td>{caps[i]}</td><td>{rates[i] * 100:.1f}%</td></tr>"
        for i in range(0, len(caps), step))
    return (f'<p class="sub">exact what-if: LRU read hit rate at every '
            f'cache capacity, from the {len(trace)} accesses of the '
            f'run\'s pass schedule</p>'
            + "".join(parts)
            + f'<details><summary>curve (table view)</summary>'
              f'<table><tr><th>capacity (chunks)</th><th>hit rate</th></tr>'
              f'{rows}</table></details>')


def _events_section(result, max_rows: int = 200) -> str:
    """The live bus's retained event tail as a timeline table."""
    bus = getattr(result.telemetry, "bus", None)
    if bus is None or not len(bus):
        return ('<p class="note">no live events captured (telemetry '
                'disabled or the event bus saw no traffic).</p>')
    events = bus.tail(max_rows)
    dropped = bus.dropped
    head = ""
    if bus.published > len(events):
        head = (f'<p class="note">showing the last {len(events)} of '
                f'{bus.published} events'
                + (f" ({dropped} dropped by the bounded ring)"
                   if dropped else "") + ".</p>")
    rows = "".join(
        f"<tr><td>{ev.t * 1e3:,.2f}</td><td>{_esc(ev.kind)}</td>"
        f"<td>{_esc(' '.join(f'{k}={v}' for k, v in ev.data.items()))}</td>"
        f"</tr>"
        for ev in events)
    return (head + '<details open><summary>event timeline</summary>'
            '<table><tr><th>t (ms)</th><th>event</th><th>data</th></tr>'
            f'{rows}</table></details>')


def _precision_section(result) -> str:
    """Tracked fidelity of the run's amplitude precision mode."""
    fid = result.precision_fidelity()
    overlap = fid["overlap"]
    overlap_txt = (f"{overlap:.12f} (measured, {fid['method']})"
                   if overlap is not None else
                   f"&ge; {fid['analytic_overlap_bound']:.9f} "
                   f"(analytic bound)")
    rows = [
        ("precision", _esc(fid["precision"])),
        ("norm", f"{fid['norm']:.12f}"),
        ("norm drift", f"{fid['norm_drift']:.3e}"),
        ("overlap vs c128", overlap_txt),
    ]
    body = "".join(f"<tr><td>{l}</td><td>{v}</td></tr>" for l, v in rows)
    return f"<table>{body}</table>"


# -- the document --------------------------------------------------------------


def render_html(result, *, title: str = "MEMQSim run report",
                model: Optional[PipelineModel] = None,
                max_events: int = 600, max_table_rows: int = 64) -> str:
    """Render one run as a self-contained HTML document (a string).

    Args:
        result: a :class:`~repro.core.results.MemQSimResult`.
        model: the overlap model used to place events on lanes (defaults
            to a fresh single-lane :class:`PipelineModel`).
        max_events: cap on SVG timeline marks (keeps files small).
        max_table_rows: cap on per-chunk compression table rows.
    """
    ratio = result.compression_ratio
    ratio_txt = "∞" if math.isinf(ratio) else f"{ratio:.1f}x"
    extra_q = result._extra_qubits()
    tiles = [
        ("wall time", format_seconds(result.wall_seconds)),
        ("online (stopwatch)",
         f"{format_seconds(result.online_seconds)} "
         f"({result.pipeline_speedup:.2f}x measured overlap)"),
        ("compression", ratio_txt),
        ("peak host", format_bytes(result.peak_host_bytes)),
        ("dense would be", format_bytes(result.dense_bytes)),
        ("group passes",
         f"{result.plan.group_passes} run, "
         f"{result.scheduler_stats.group_passes_skipped} all-zero skipped"),
        ("qubits", str(result.num_qubits)),
        ("effective qubits gained", f"+{extra_q:.1f}"),
        ("precision", result.precision),
    ]
    tile_html = "".join(
        f'<div class="tile"><div class="v">{_esc(v)}</div>'
        f'<div class="l">{_esc(l)}</div></div>' for l, v in tiles)
    sections = [
        f"<h1>{_esc(title)}</h1>",
        f'<p class="sub">{_esc(result.config_summary)}</p>',
        f'<div class="tiles">{tile_html}</div>',
        "<h2>Pipeline stage timeline (modelled)</h2>",
        _timeline_section(result, model, max_events),
        "<h2>Memory over time</h2>",
        _memory_section(result.resource_timeline),
        "<h2>Per-chunk compression</h2>",
        _compression_section(result, max_table_rows),
        "<h2>Compile / gate fusion</h2>",
        _compile_section(result),
        "<h2>Precision fidelity</h2>",
        _precision_section(result),
        "<h2>Memory traffic</h2>",
        _traffic_section(result),
        "<h2>Cache what-if (access trace)</h2>",
        _memtrace_section(result),
        "<h2>Metrics</h2>",
        _metrics_section(result),
        "<h2>Live events</h2>",
        _events_section(result),
    ]
    return (f"<!doctype html><html><head><meta charset=\"utf-8\">"
            f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
            f"<body>{''.join(sections)}</body></html>")


def write_html(result, path: str, **kwargs) -> int:
    """Write the report file; returns bytes written."""
    doc = render_html(result, **kwargs)
    data = doc.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
