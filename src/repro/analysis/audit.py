"""Plan-vs-actual audit: predict the access schedule and traffic envelope
from the compiled plan, then verify a run against them.

Because a :class:`~repro.compile.CompiledPlan` and the start state's support
set (which chunks may be non-zero) fix the entire execution — stage order,
chunk grouping, sweep direction, which groups are streamed at all
(:mod:`repro.pipeline.sweep`) — the memory behaviour of a run is
*statically decidable* before a single amplitude moves:

* :func:`predict_access_schedule` derives the exact chunk access sequence
  (what a :class:`~repro.memory.traffic.ChunkAccessRecorder` will record);
* :func:`predict_traffic` derives the per-stage byte counts for the
  deterministic edges (codec raw side, arena transfers) and a ratio
  envelope for the data-dependent one (compressed bytes). Every member
  of a pass crosses the arena and is recompressed, but only its live
  members are decoded: a zero member's load is a fill
  (:func:`~repro.pipeline.sweep.predict_sweep`), so it moves no codec
  bytes in.

:func:`audit_run` compares both against what a run actually measured. A
mismatch means the executor moved bytes the plan does not explain —
exactly the class of regression (double loads, missed passes, phantom
flushes) that time-based telemetry cannot see. ``python -m repro audit``
wires this end to end.

It also sets the launch-cost model's predicted kernel seconds per gate
stage (:attr:`~repro.compile.CompileReport.kernel_stages`, one pass's
launches x the passes the stage ran) beside the timeline's measured
KERNEL seconds, and flags a stage off by more than
:data:`KERNEL_FLAG_FACTOR` either way. A flag is a finding about the
model, not a failed audit: seconds are not the plan's to fix.

Audit contract: the chunk cache must be disabled — the deterministic
edges are only exact when every load of a live chunk reaches the codec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..device.timeline import Stage
from ..memory.layout import ChunkLayout
from ..pipeline.sweep import predict_pass_schedule, predict_sweep

__all__ = [
    "predict_pass_schedule",
    "predict_access_schedule",
    "predict_traffic",
    "AuditReport",
    "audit_run",
    "compare_kernel_seconds",
]

#: compressed bytes may not exceed ``slack * raw bytes`` (codecs fall back
#: to a raw container on incompressible data, plus a small header)
DEFAULT_RATIO_SLACK = 1.25

#: the edges whose bytes the plan fixes exactly: decompressed on load,
#: recompressed on store, and the arena copy each way
DET_EDGES = ("codec.raw_out", "codec.raw_in", "arena.h2d", "arena.d2h")

#: a gate stage whose measured kernel seconds differ from the model's
#: prediction by more than this factor, either way, is flagged
KERNEL_FLAG_FACTOR = 2.0


def _access_trace(passes) -> List[Tuple[int, int, str]]:
    trace: List[Tuple[int, int, str]] = []
    for kind, si, _gi, members in passes:
        if kind == "barrier":
            trace.append((si, -1, "b"))
            continue
        for chunk in members:
            trace.append((si, chunk, "r"))
        for chunk in members:
            trace.append((si, chunk, "w"))
    return trace


def _pass_traffic(members, zero, layout: ChunkLayout) -> Dict[str, int]:
    """One group pass's bytes on each deterministic edge: every member
    crosses the arena and is recompressed, only a live one is decoded (a
    zero member is filled)."""
    row = dict.fromkeys(DET_EDGES, len(members) * layout.chunk_nbytes)
    row["codec.raw_out"] -= len(zero) * layout.chunk_nbytes
    return row


def _stage_traffic(sweep, num_stages: int,
                   layout: ChunkLayout) -> Dict[int, Dict[str, int]]:
    traffic: Dict[int, Dict[str, int]] = {si: {} for si in range(num_stages)}
    for (kind, si, _gi, members), zero in sweep:
        if kind == "pass":
            row = traffic[si]
            for edge, nbytes in _pass_traffic(members, zero, layout).items():
                row[edge] = row.get(edge, 0) + nbytes
    return traffic


def predict_access_schedule(
    stages: Sequence[Any],
    layout: ChunkLayout,
    support: Optional[Iterable[int]] = None,
) -> List[Tuple[int, int, str]]:
    """The exact access trace a run of ``stages`` will record.

    Derived from :func:`predict_pass_schedule`: each group pass that runs
    reads then writes its members in order; permutation stages contribute
    one barrier marker. ``support`` is the start state's support set
    (``None`` = every chunk may be non-zero: the full sweep).
    """
    return _access_trace(predict_pass_schedule(stages, layout, support))


def predict_traffic(
    stages: Sequence[Any],
    layout: ChunkLayout,
    support: Optional[Iterable[int]] = None,
) -> Dict[int, Dict[str, int]]:
    """Per-stage deterministic byte counts: ``{stage: {"edge.dir": bytes}}``.

    Every chunk of every group pass that runs crosses the arena once in
    each direction and the codec's raw side once on store (audit contract:
    all groups on the device path), so a gate stage moves ``chunk_nbytes``
    per member of its passes in :func:`predict_pass_schedule` —
    ``num_chunks * chunk_nbytes`` under full ``support``. Only its live
    members are decoded: ``codec.raw_out`` (and the count of
    ``codec.compressed_in`` records) leaves out the pass's zero members
    (:func:`~repro.pipeline.sweep.predict_sweep`), whose load is a fill.
    A stage with an empty row moves no bytes at all: a permutation stage
    (relabeling is the whole point) or a gate stage none of whose groups
    is live.
    """
    return _stage_traffic(predict_sweep(stages, layout, support=support),
                          len(stages), layout)


@dataclass
class AuditReport:
    """Outcome of one plan-vs-actual comparison."""

    schedule_ok: bool
    schedule_predicted: int
    schedule_measured: int
    #: group passes the plan runs from the start support (of the full sweep)
    passes_predicted: int = 0
    #: index + (predicted, measured) at the first diverging access
    first_divergence: Optional[Tuple[int, Any, Any]] = None
    traffic_ok: bool = True
    envelope_ok: bool = True
    errors: List[str] = field(default_factory=list)
    #: per-stage predicted vs measured for the deterministic edges
    stage_rows: List[Dict[str, Any]] = field(default_factory=list)
    compressed_out: int = 0
    raw_in: int = 0
    compressed_in: int = 0
    raw_out: int = 0
    ratio_slack: float = DEFAULT_RATIO_SLACK
    #: per gate stage, predicted against measured kernel seconds
    #: (:func:`compare_kernel_seconds`); empty when not asked for
    kernel_rows: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.schedule_ok and self.traffic_ok and self.envelope_ok

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "schedule_ok": self.schedule_ok,
            "schedule_predicted": self.schedule_predicted,
            "schedule_measured": self.schedule_measured,
            "passes_predicted": self.passes_predicted,
            "first_divergence": self.first_divergence,
            "traffic_ok": self.traffic_ok,
            "envelope_ok": self.envelope_ok,
            "errors": list(self.errors),
            "stages": self.stage_rows,
            "compressed_out": self.compressed_out,
            "raw_in": self.raw_in,
            "compressed_in": self.compressed_in,
            "raw_out": self.raw_out,
            "ratio_slack": self.ratio_slack,
            "kernel": self.kernel_rows,
        }

    def render(self) -> str:
        mark = lambda ok: "PASS" if ok else "FAIL"  # noqa: E731
        lines = [
            f"audit: {mark(self.ok)}",
            f"  schedule  {mark(self.schedule_ok)}  "
            f"({self.schedule_measured} accesses, "
            f"{self.schedule_predicted} predicted in "
            f"{self.passes_predicted} group passes)",
        ]
        if self.first_divergence is not None:
            i, want, got = self.first_divergence
            lines.append(f"    first divergence at access {i}: "
                         f"predicted {want}, measured {got}")
        lines.append(f"  traffic   {mark(self.traffic_ok)}  "
                     f"(deterministic edges, per stage / group / worker)")
        for row in self.stage_rows:
            if not row.get("ok", True):
                lines.append(f"    stage {row['stage']}: {row}")
        if self.raw_in:
            ratio = self.compressed_out / self.raw_in
            lines.append(
                f"  envelope  {mark(self.envelope_ok)}  "
                f"(compressed/raw = {ratio:.3f}, "
                f"bound ({0:.0f}, {self.ratio_slack:.2f}])")
        else:
            lines.append(f"  envelope  {mark(self.envelope_ok)}")
        if self.kernel_rows:
            flagged = sum(row["flagged"] for row in self.kernel_rows)
            lines.append(
                f"  kernel    {flagged} of {len(self.kernel_rows)} gate "
                f"stages off the model by more than "
                f"{KERNEL_FLAG_FACTOR:g}x (measured / predicted; not gated)")
            for row in self.kernel_rows:
                lines.append(
                    f"    stage {row['stage']}: {row['passes']} passes, "
                    f"predicted {row['predicted_s'] * 1e3:.3f} ms, "
                    f"measured {row['measured_s'] * 1e3:.3f} ms "
                    f"({row['ratio']:.2f}x)"
                    + ("  <- flagged" if row["flagged"] else ""))
        for err in self.errors:
            lines.append(f"  ! {err}")
        return "\n".join(lines)


def compare_kernel_seconds(passes, kernel_stages, timeline,
                           ) -> List[Dict[str, Any]]:
    """Per gate stage, the model's kernel seconds against the measured.

    ``kernel_stages`` is :attr:`CompileReport.kernel_stages
    <repro.compile.CompileReport.kernel_stages>`; the prediction for a
    stage is one pass's launches times the passes it ran in ``passes``
    (the pass schedule), whose order the timeline's KERNEL rows follow,
    one row per pass. Empty when the two do not line up."""
    seconds = [row[2] for row in timeline.rows if row[0] == Stage.KERNEL]
    ran = [si for kind, si, _gi, _members in passes if kind == "pass"]
    if len(seconds) != len(ran):
        return []
    measured: Dict[int, float] = {}
    count: Dict[int, int] = {}
    for si, s in zip(ran, seconds):
        measured[si] = measured.get(si, 0.0) + s
        count[si] = count.get(si, 0) + 1
    rows = []
    for si, groups, pass_s in kernel_stages:
        if not count.get(si):
            continue
        predicted = count[si] * pass_s
        ratio = measured[si] / predicted if predicted > 0 else float("inf")
        rows.append({"stage": si, "passes": count[si], "groups": groups,
                     "predicted_s": predicted, "measured_s": measured[si],
                     "ratio": ratio,
                     "flagged": not (1 / KERNEL_FLAG_FACTOR <= ratio
                                     <= KERNEL_FLAG_FACTOR)})
    return rows


def audit_run(
    stages: Sequence[Any],
    layout: ChunkLayout,
    trace: Sequence[Tuple[int, int, str]],
    ledger,
    *,
    ratio_slack: float = DEFAULT_RATIO_SLACK,
    support: Optional[Iterable[int]] = None,
    timeline: Any = None,
    kernel_stages: Sequence[Tuple[int, int, float]] = (),
) -> AuditReport:
    """Verify a measured run against its plan's predicted behaviour.

    ``trace`` is the recorded access sequence, ``ledger`` the run's
    :class:`~repro.memory.traffic.TrafficLedger`, ``support`` the support
    set the run started from (``None`` = full: every group of every stage
    is expected to run). Checks, in order:

    1. the measured access schedule equals the predicted one **exactly**
       (same chunks, same order, same read/write pattern, same barriers);
    2. per gate stage **and per group pass**, measured bytes on the
       deterministic edges (``codec.raw_*``, ``arena.*``) equal the
       prediction — ``codec.raw_out`` from the pass's live members only,
       a write a codec lane settled during a later pass
       still counts for the pass that issued it — permutation stages
       moved zero bytes, and the per-worker rows sum to the totals;
    3. the data-dependent compressed bytes fall inside the codec-ratio
       envelope ``0 < compressed <= slack * raw`` (both directions).

    With a ``timeline`` and the plan's ``kernel_stages``, the report also
    carries :func:`compare_kernel_seconds` (informational).
    """
    sweep = predict_sweep(stages, layout, support)
    passes = [p for p, _zero in sweep]
    predicted = _access_trace(passes)
    measured = [tuple(t) for t in trace]
    rep = AuditReport(
        schedule_ok=True,
        schedule_predicted=len(predicted),
        schedule_measured=len(measured),
        passes_predicted=sum(kind == "pass" for kind, *_ in passes),
        ratio_slack=ratio_slack,
    )

    # 1. exact schedule match
    for i, (want, got) in enumerate(zip(predicted, measured)):
        if want != got:
            rep.schedule_ok = False
            rep.first_divergence = (i, want, got)
            rep.errors.append(
                f"access {i}: predicted {want}, measured {got}")
            break
    else:
        if len(predicted) != len(measured):
            rep.schedule_ok = False
            i = min(len(predicted), len(measured))
            want = predicted[i] if i < len(predicted) else None
            got = measured[i] if i < len(measured) else None
            rep.first_divergence = (i, want, got)
            rep.errors.append(
                f"schedule length mismatch: predicted {len(predicted)} "
                f"accesses, measured {len(measured)}")

    # 2. deterministic per-stage byte counts
    want_traffic = _stage_traffic(sweep, len(stages), layout)
    got_traffic = ledger.by_stage()
    for si in range(len(stages)):
        want_row = want_traffic.get(si, {})
        got_row = got_traffic.get(si, {})
        row: Dict[str, Any] = {"stage": si, "ok": True}
        if not want_row:  # nothing runs: zero traffic of any kind
            moved = sum(got_row.values())
            row["measured"] = moved
            if moved:
                row["ok"] = False
                rep.traffic_ok = False
                rep.errors.append(
                    f"stage {si} (no live pass) moved {moved} bytes; "
                    f"a relabeling or an all-zero stage must move none: "
                    f"{got_row}")
        else:
            for edge in DET_EDGES:
                want_b = want_row[edge]
                got_b = got_row.get(edge, 0)
                row[edge] = got_b
                if got_b != want_b:
                    row["ok"] = False
                    rep.traffic_ok = False
                    rep.errors.append(
                        f"stage {si} {edge}: predicted {want_b}, "
                        f"measured {got_b}")
        rep.stage_rows.append(row)
    by_group: Dict[int, Dict[int, Dict[str, int]]] = {}
    for (kind, si, gi, members), zero in sweep:
        if kind != "pass":
            continue
        if si not in by_group:
            by_group[si] = ledger.by_group(si)
        got_row = by_group[si].get(gi, {})
        for edge, want_b in _pass_traffic(members, zero, layout).items():
            if got_row.get(edge, 0) != want_b:
                rep.traffic_ok = False
                rep.errors.append(
                    f"stage {si} group {gi} {edge}: predicted {want_b}, "
                    f"measured {got_row.get(edge, 0)}")
    totals = ledger.totals()
    by_worker = ledger.by_worker()
    for edge, tot in totals.items():
        split = sum(row.get(edge, 0) for row in by_worker.values())
        if split != tot["bytes"]:
            rep.traffic_ok = False
            rep.errors.append(
                f"{edge}: worker rows sum to {split}, total {tot['bytes']}")
    known = set(want_traffic)
    for si in got_traffic:
        if si >= 0 and si not in known:
            rep.traffic_ok = False
            rep.errors.append(
                f"traffic attributed to unplanned stage {si}: "
                f"{got_traffic[si]}")

    # 3. compressed-bytes envelope (in-stage traffic only; init compression
    # happens before stage 0 and is attributed out-of-stage)
    for si, row in got_traffic.items():
        if si < 0:
            continue
        rep.raw_in += row.get("codec.raw_in", 0)
        rep.compressed_out += row.get("codec.compressed_out", 0)
        rep.raw_out += row.get("codec.raw_out", 0)
        rep.compressed_in += row.get("codec.compressed_in", 0)
    for raw, comp, label in (
        (rep.raw_in, rep.compressed_out, "compress"),
        (rep.raw_out, rep.compressed_in, "decompress"),
    ):
        if raw == 0:
            continue
        if comp <= 0:
            rep.envelope_ok = False
            rep.errors.append(
                f"{label}: {raw} raw bytes moved but no compressed bytes "
                f"recorded")
        elif comp > ratio_slack * raw:
            rep.envelope_ok = False
            rep.errors.append(
                f"{label}: compressed bytes {comp} exceed envelope "
                f"{ratio_slack:.2f} * {raw} raw")
    if timeline is not None:
        rep.kernel_rows = compare_kernel_seconds(passes, kernel_stages,
                                                 timeline)
    return rep
