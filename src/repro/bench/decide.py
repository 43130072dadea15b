"""Empirical auto-selection of config knobs from the bench corpus.

``MemQSimConfig`` exposes two knobs that may be left open —
``precision="auto"`` and ``workers=0`` — and this module closes them, in
order of preference (an unset ``fuse_gates`` is closed here too, but
*derived*, not measured: see :func:`decide_fusion`):

1. **corpus lookup** — the committed baselines under ``results/baselines/``
   carry a host fingerprint; if a record for the deciding experiment exists
   *and* its fingerprint matches this host on the stable keys (cpu count,
   platform, python), the measured numbers decide directly. For precision
   that record is ``BENCH_PR1`` (c64-vs-c128 end-to-end bytes and wall-time
   ratios); its gates mirror the benchmark's own regression gates:
   adopt c64 when it moves at most :data:`BYTES_RATIO_GATE` of the c128
   bytes *and* is not slower (:data:`WALL_RATIO_GATE`).
2. **micro-probe** — with no compatible baseline, run a one-shot probe on
   this machine (a tiny streamed circuit at both precisions; the
   codec-amortization probe for workers).
3. **default** — if even the probe is inconclusive, keep the conservative
   default (c128 / serial) and say why.

Every choice is returned as a :class:`Decision` carrying the knob, the
value, the source (``corpus`` | ``probe`` | ``default`` | ``derived``) and a one-line
rationale; :func:`resolve_auto_config` logs each as an audit line and the
run echoes them in ``config_echo["decisions"]``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..telemetry import get_logger
from .baseline import DEFAULT_BASELINE_DIR, _hosts_match
from .schema import host_fingerprint, load_result, median

log = get_logger(__name__)

__all__ = [
    "Decision",
    "BYTES_RATIO_GATE",
    "WALL_RATIO_GATE",
    "load_corpus",
    "find_record",
    "decide_precision",
    "decide_workers",
    "decide_fusion",
    "resolve_auto_config",
]

#: c64 must move at most this share of the c128 end-to-end bytes ...
BYTES_RATIO_GATE = 0.55
#: ... and must not be slower, for the corpus to pick it.
WALL_RATIO_GATE = 1.0
#: a one-shot micro-probe's wall ratio is noisy; allow this much slack
#: (the bytes ratio is deterministic, so it stays the hard gate).
PROBE_WALL_SLACK = 1.25


@dataclass(frozen=True)
class Decision:
    """One resolved auto knob, with its provenance."""

    knob: str
    value: Any
    source: str  # "corpus" | "probe" | "default" | "derived"
    rationale: str

    def audit_line(self) -> str:
        return (f"auto-resolve {self.knob}={self.value} "
                f"[{self.source}] {self.rationale}")

    def to_dict(self) -> Dict[str, Any]:
        return {"knob": self.knob, "value": self.value,
                "source": self.source, "rationale": self.rationale}


# -- corpus access -----------------------------------------------------------


def load_corpus(corpus_dir: Optional[Union[str, Path]] = None) -> List[dict]:
    """Load every readable ``BENCH_*.json`` record from the corpus dir."""
    root = Path(corpus_dir if corpus_dir is not None else DEFAULT_BASELINE_DIR)
    records: List[dict] = []
    if not root.is_dir():
        return records
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            records.append(load_result(path))
        except (ValueError, OSError):  # unreadable/foreign file: skip
            log.debug("decide: skipping unreadable record %s", path)
    return records


def find_record(
    experiment: str,
    corpus_dir: Optional[Union[str, Path]] = None,
    host: Optional[dict] = None,
) -> Optional[dict]:
    """The corpus record for ``experiment`` iff its host matches this one.

    Matching uses the same stable fingerprint keys as the baseline
    comparator (cpu count, platform, python); a record measured on a
    different machine class must not decide knobs here.
    """
    here = host if host is not None else host_fingerprint()
    for rec in load_corpus(corpus_dir):
        if rec.get("experiment") != experiment:
            continue
        if _hosts_match(rec.get("host", {}), here):
            return rec
        log.debug("decide: %s record found but host fingerprint differs",
                  experiment)
    return None


def _metric_median(rec: dict, name: str) -> Optional[float]:
    m = rec.get("metrics", {}).get(name)
    if not m or not m.get("values"):
        return None
    return median(m["values"])


# -- precision ---------------------------------------------------------------


def decide_precision(
    corpus_dir: Optional[Union[str, Path]] = None,
    allow_probe: bool = True,
) -> Decision:
    """Pick ``c64`` or ``c128`` from BENCH_PR1 or a one-shot micro-probe."""
    rec = find_record("PR1", corpus_dir)
    if rec is not None:
        bytes_ratio = _metric_median(rec, "c64_bytes_ratio")
        wall_ratio = _metric_median(rec, "c64_wall_ratio")
        if bytes_ratio is not None and wall_ratio is not None:
            if bytes_ratio <= BYTES_RATIO_GATE and wall_ratio < WALL_RATIO_GATE:
                return Decision(
                    "precision", "c64", "corpus",
                    f"BENCH_PR1 on a matching host: c64 moves "
                    f"{bytes_ratio:.2f}x the bytes at {wall_ratio:.2f}x the "
                    f"wall time (gates: <= {BYTES_RATIO_GATE}, "
                    f"< {WALL_RATIO_GATE})")
            return Decision(
                "precision", "c128", "corpus",
                f"BENCH_PR1 on a matching host: c64 ratios "
                f"bytes={bytes_ratio:.2f} wall={wall_ratio:.2f} miss the "
                f"gates (<= {BYTES_RATIO_GATE}, < {WALL_RATIO_GATE})")
    if allow_probe:
        try:
            return _probe_precision()
        except Exception as exc:  # probe must never kill the run
            log.warning("decide: precision micro-probe failed: %s", exc)
    return Decision(
        "precision", "c128", "default",
        "no compatible BENCH_PR1 baseline and no probe; keeping full "
        "precision")


def _probe_precision() -> Decision:
    """One-shot streamed run at both precisions; compare bytes and wall.

    The probe must actually stream (a tiny device arena forces multi-stage
    group passes) and use chunks large enough that per-blob codec headers
    do not swamp the payload halving.
    """
    from ..circuits.generators import qft
    from ..core.memqsim import MemQSim
    from ..device.spec import DeviceSpec
    from ..telemetry import Telemetry

    circuit = qft(10)
    observed: Dict[str, Tuple[int, float]] = {}
    for prec in ("c128", "c64"):
        tel = Telemetry()
        t0 = time.perf_counter()
        MemQSim(precision=prec, chunk_qubits=7, compressor="zlib",
                device=DeviceSpec(memory_bytes=1 << 18),
                telemetry=tel).run(circuit)
        wall = time.perf_counter() - t0
        moved = sum(v["bytes"] for v in tel.traffic.totals().values())
        observed[prec] = (moved, wall)
    b128, w128 = observed["c128"]
    b64, w64 = observed["c64"]
    bytes_ratio = b64 / b128 if b128 else 1.0
    wall_ratio = w64 / w128 if w128 else 1.0
    if bytes_ratio <= BYTES_RATIO_GATE and wall_ratio < PROBE_WALL_SLACK:
        return Decision(
            "precision", "c64", "probe",
            f"micro-probe (qft-10, zlib): c64 moved {bytes_ratio:.2f}x the "
            f"bytes at {wall_ratio:.2f}x the wall time")
    return Decision(
        "precision", "c128", "probe",
        f"micro-probe (qft-10, zlib): c64 ratios bytes={bytes_ratio:.2f} "
        f"wall={wall_ratio:.2f} did not clear the gates")


# -- workers -----------------------------------------------------------------


def decide_workers(config, chunk_size: int = 1 << 12) -> Decision:
    """Resolve ``workers=0`` via the codec-amortization probe."""
    from ..parallel.pool import auto_workers

    value = auto_workers(config.make_compressor(), chunk_size)
    why = ("per-chunk codec time amortizes the lane hand-off"
           if value > 1 else
           "codec too fast (or no spare cores) for fan-out to pay")
    return Decision(
        "workers", value, "probe",
        f"codec probe ({config.compressor}, chunk_size={chunk_size}): {why}")


# -- fusion ------------------------------------------------------------------


def decide_fusion(config) -> Decision:
    """Resolve an unset ``fuse_gates`` from the codec's losslessness.

    Not a probe: fusion halves kernel time on a dense state at every size
    on record and is level on a structured one under either codec
    (BENCH_FU1), so the only thing to decide is whether anybody can see
    the different rounding. Under a lossy codec every stage already moves
    each amplitude by up to the error bound, so nobody can; a lossless run
    stays unfused because it is bit-identical to ``DenseSimulator`` and
    digests are compared on that. :func:`resolve_auto_config` is the one
    place this is applied to a config.
    """
    codec = config.make_compressor()
    if codec.is_lossy:
        why = (f"{codec.describe()} already perturbs every stage, so fused "
               "ops' rounding is invisible; fewer launches, which halves "
               "kernel time on a dense state and is level otherwise")
    else:
        why = (f"{codec.describe()} keeps the run bit-identical to "
               "DenseSimulator; fused products would round differently")
    return Decision("fuse_gates", codec.is_lossy, "derived", why)


# -- top-level resolution ----------------------------------------------------


def resolve_auto_config(
    config,
    num_qubits: Optional[int] = None,
    corpus_dir: Optional[Union[str, Path]] = None,
) -> Tuple[Any, List[Decision]]:
    """Close every open knob on ``config``; returns (concrete, decisions).

    The returned config has ``precision``/``fuse_gates`` concrete and
    ``workers >= 1``, so ``plan_key()`` and all downstream sizing math are
    well-defined. Each decision is logged as one audit line.
    """
    decisions: List[Decision] = []
    updates: Dict[str, Any] = {}
    if config.fuse_gates is None:
        d = decide_fusion(config)
        updates["fuse_gates"] = d.value
        decisions.append(d)
    if config.precision == "auto":
        d = decide_precision(corpus_dir)
        updates["precision"] = d.value
        decisions.append(d)
    if config.workers == 0:
        partial = config.with_updates(**updates) if updates else config
        chunk_size = 1 << partial.resolve_chunk_qubits(num_qubits) \
            if num_qubits else (1 << 12)
        d = decide_workers(partial, chunk_size)
        updates["workers"] = d.value
        decisions.append(d)
    for d in decisions:
        log.info("%s", d.audit_line())
    resolved = config.with_updates(**updates) if updates else config
    return resolved, decisions
