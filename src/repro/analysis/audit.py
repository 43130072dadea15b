"""Plan-vs-actual audit: predict the access schedule and traffic envelope
from the compiled plan, then verify a run against them.

Because a :class:`~repro.compile.CompiledPlan` fixes the entire execution
— stage order, chunk grouping, sweep direction — the memory behaviour of a
run is *statically decidable* before a single amplitude moves:

* :func:`predict_access_schedule` derives the exact chunk access sequence
  (what a :class:`~repro.memory.traffic.ChunkAccessRecorder` will record);
* :func:`predict_traffic` derives the per-stage byte counts for the
  deterministic edges (codec raw side, arena transfers) and a ratio
  envelope for the data-dependent one (compressed bytes).

:func:`audit_run` compares both against what a run actually measured. A
mismatch means the executor moved bytes the plan does not explain —
exactly the class of regression (double loads, missed passes, phantom
flushes) that time-based telemetry cannot see. ``python -m repro audit``
wires this end to end.

Audit contract: the run must be serial, with the chunk cache disabled and
``cpu_offload_fraction = 0`` — the deterministic edges are only exact when
every group takes the device path and every load reaches the codec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..compile import CompiledGateStage
from ..memory.layout import ChunkLayout
from ..pipeline.stages import GateStage, PermutationStage

__all__ = [
    "predict_pass_schedule",
    "predict_access_schedule",
    "predict_traffic",
    "AuditReport",
    "audit_run",
]

#: compressed bytes may not exceed ``slack * raw bytes`` (codecs fall back
#: to a raw container on incompressible data, plus a small header)
DEFAULT_RATIO_SLACK = 1.25


def _is_gate_stage(stage: Any) -> bool:
    return isinstance(stage, (GateStage, CompiledGateStage))


def predict_pass_schedule(
    stages: Sequence[Any],
    layout: ChunkLayout,
    serpentine: bool = False,
) -> List[Tuple[str, int, int, Tuple[int, ...]]]:
    """The exact group-pass sequence a run of ``stages`` will execute.

    Mirrors the scheduler's sweep: per gate stage, enumerate the layout's
    chunk groups in serpentine-aware order (parity flips on gate stages
    only — permutations don't consume a sweep). Returns a flat list of

    * ``("pass", stage_index, group_id, members)`` — one group pass, and
    * ``("barrier", stage_index, -1, ())`` — one permutation stage.

    Group ids are the placement's original enumeration indices, exactly
    the ids the scheduler attributes traffic to — so ``(stage, group)``
    keys from this schedule line up with the live run's pass keys. This
    is the source of truth for the plan-driven memory hierarchy
    (:mod:`repro.memory.hierarchy`): the access-level schedule below and
    the codec lane's prefetch (``AccessSchedule.reads_after``) both derive
    from it.
    """
    passes: List[Tuple[str, int, int, Tuple[int, ...]]] = []
    parity = 0
    for si, stage in enumerate(stages):
        if isinstance(stage, PermutationStage):
            passes.append(("barrier", si, -1, ()))
            continue
        if not _is_gate_stage(stage):
            raise TypeError(f"unknown stage type {type(stage).__name__}")
        placement = layout.chunk_groups(stage.group_qubits)
        order = list(enumerate(placement.groups))
        if serpentine:
            parity ^= 1
            if parity == 0:
                order.reverse()
        for gi, members in order:
            passes.append(("pass", si, gi, tuple(members)))
    return passes


def predict_access_schedule(
    stages: Sequence[Any],
    layout: ChunkLayout,
    serpentine: bool = False,
) -> List[Tuple[int, int, str]]:
    """The exact access trace a run of ``stages`` will record.

    Derived from :func:`predict_pass_schedule`: each group pass reads then
    writes its members in order; permutation stages contribute one barrier
    marker.
    """
    trace: List[Tuple[int, int, str]] = []
    for kind, si, _gi, members in predict_pass_schedule(
            stages, layout, serpentine):
        if kind == "barrier":
            trace.append((si, -1, "b"))
            continue
        for chunk in members:
            trace.append((si, chunk, "r"))
        for chunk in members:
            trace.append((si, chunk, "w"))
    return trace


def predict_traffic(
    stages: Sequence[Any],
    layout: ChunkLayout,
) -> Dict[int, Dict[str, int]]:
    """Per-stage deterministic byte counts: ``{stage: {"edge.dir": bytes}}``.

    Every gate stage touches every chunk exactly once in each direction,
    so its raw codec traffic and arena traffic are both
    ``num_chunks * chunk_nbytes`` per direction (audit contract: all
    groups on the device path). Permutation stages move zero bytes —
    relabeling is the whole point.
    """
    out: Dict[int, Dict[str, int]] = {}
    stage_bytes = layout.num_chunks * layout.chunk_nbytes
    for si, stage in enumerate(stages):
        if isinstance(stage, PermutationStage):
            out[si] = {}
            continue
        if not _is_gate_stage(stage):
            raise TypeError(f"unknown stage type {type(stage).__name__}")
        out[si] = {
            "codec.raw_out": stage_bytes,   # decompressed on load
            "codec.raw_in": stage_bytes,    # recompressed on store
            "arena.h2d": stage_bytes,
            "arena.d2h": stage_bytes,
        }
    return out


@dataclass
class AuditReport:
    """Outcome of one plan-vs-actual comparison."""

    schedule_ok: bool
    schedule_predicted: int
    schedule_measured: int
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

    @property
    def ok(self) -> bool:
        return self.schedule_ok and self.traffic_ok and self.envelope_ok

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "schedule_ok": self.schedule_ok,
            "schedule_predicted": self.schedule_predicted,
            "schedule_measured": self.schedule_measured,
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
        }

    def render(self) -> str:
        mark = lambda ok: "PASS" if ok else "FAIL"  # noqa: E731
        lines = [
            f"audit: {mark(self.ok)}",
            f"  schedule  {mark(self.schedule_ok)}  "
            f"({self.schedule_measured} accesses, "
            f"{self.schedule_predicted} predicted)",
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
        for err in self.errors:
            lines.append(f"  ! {err}")
        return "\n".join(lines)


def audit_run(
    stages: Sequence[Any],
    layout: ChunkLayout,
    trace: Sequence[Tuple[int, int, str]],
    ledger,
    *,
    serpentine: bool = False,
    ratio_slack: float = DEFAULT_RATIO_SLACK,
) -> AuditReport:
    """Verify a measured run against its plan's predicted behaviour.

    ``trace`` is the recorded access sequence, ``ledger`` the run's
    :class:`~repro.memory.traffic.TrafficLedger`. Checks, in order:

    1. the measured access schedule equals the predicted one **exactly**
       (same chunks, same order, same read/write pattern, same barriers);
    2. per gate stage **and per group pass**, measured bytes on the
       deterministic edges (``codec.raw_*``, ``arena.*``) equal the
       prediction — a write a codec lane settled during a later pass
       still counts for the pass that issued it — permutation stages
       moved zero bytes, and the per-worker rows sum to the totals;
    3. the data-dependent compressed bytes fall inside the codec-ratio
       envelope ``0 < compressed <= slack * raw`` (both directions).
    """
    predicted = predict_access_schedule(stages, layout, serpentine)
    measured = [tuple(t) for t in trace]
    rep = AuditReport(
        schedule_ok=True,
        schedule_predicted=len(predicted),
        schedule_measured=len(measured),
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
    want_traffic = predict_traffic(stages, layout)
    got_traffic = ledger.by_stage()
    det_edges = ("codec.raw_out", "codec.raw_in", "arena.h2d", "arena.d2h")
    for si in range(len(stages)):
        want_row = want_traffic.get(si, {})
        got_row = got_traffic.get(si, {})
        row: Dict[str, Any] = {"stage": si, "ok": True}
        if not want_row:  # permutation: zero traffic of any kind
            moved = sum(got_row.values())
            row["measured"] = moved
            if moved:
                row["ok"] = False
                rep.traffic_ok = False
                rep.errors.append(
                    f"stage {si} (permutation) moved {moved} bytes; "
                    f"relabeling must move none: {got_row}")
        else:
            for edge in det_edges:
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
    for kind, si, gi, members in predict_pass_schedule(
            stages, layout, serpentine):
        if kind != "pass":
            continue
        if si not in by_group:
            by_group[si] = ledger.by_group(si)
        want_b = len(members) * layout.chunk_nbytes
        got_row = by_group[si].get(gi, {})
        for edge in det_edges:
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
    return rep
