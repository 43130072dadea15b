"""Worker-count equivalence harness.

The contract the parallel subsystem must keep: running the same circuit
with the same configuration must produce the *same compressed store*,
whether codec work ran inline or fanned out across codec lane threads —
bit-identical final statevector and identical per-chunk blobs
(lossy codecs included: the codec is a pure function of chunk bytes and
parameters, so determinism is exact, not approximate), and the same cache
hits and misses, because one loop makes every cache and tier decision in
one order whatever runs the codec. With a lossy codec that last part is
what keeps the first: a hit skips a recompression, so a worker count that
changed the hits would change the state.

:func:`run_equivalence` executes a circuit twice (no pool, then a pool of
``workers`` lanes) and compares blob-for-blob and
amplitude-for-amplitude. Tests and CI assert on the returned report;
``python -m repro.parallel.equivalence`` runs a quick self-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..circuits.circuit import Circuit
from ..core.config import MemQSimConfig
from ..telemetry import get_logger

__all__ = ["EquivalenceReport", "run_equivalence", "compare_stores"]

log = get_logger(__name__)


@dataclass
class EquivalenceReport:
    """Outcome of one serial-vs-parallel A/B."""

    num_qubits: int
    workers: int
    compressor: str
    blobs_identical: bool
    mismatched_chunks: List[int] = field(default_factory=list)
    state_bit_identical: bool = False
    state_max_abs_diff: float = 0.0
    serial_wall_seconds: float = 0.0
    parallel_wall_seconds: float = 0.0
    #: (hits, misses) of the decompressed-chunk cache on each side
    serial_cache: Tuple[int, int] = (0, 0)
    parallel_cache: Tuple[int, int] = (0, 0)
    #: blobs the tiered store promoted on each side (placement may differ)
    promotions: Tuple[int, int] = (0, 0)

    @property
    def ok(self) -> bool:
        """The determinism guarantee: identical blobs, amplitudes and
        cache decisions."""
        return (self.blobs_identical and self.state_bit_identical
                and self.serial_cache == self.parallel_cache)

    def summary(self) -> str:
        verdict = "EQUIVALENT" if self.ok else "MISMATCH"
        return (
            f"{verdict}: n={self.num_qubits} codec={self.compressor} "
            f"workers={self.workers} blobs_identical={self.blobs_identical} "
            f"({len(self.mismatched_chunks)} mismatched) "
            f"state_bit_identical={self.state_bit_identical} "
            f"max|diff|={self.state_max_abs_diff:.3e} "
            f"cache hits/misses={self.serial_cache}|{self.parallel_cache} "
            f"wall serial={self.serial_wall_seconds:.3f}s "
            f"parallel={self.parallel_wall_seconds:.3f}s"
        )


def compare_stores(serial_store, parallel_store) -> tuple:
    """Blob-for-blob comparison; returns (identical, mismatched chunk ids)."""
    mismatched = []
    n = serial_store.layout.num_chunks
    for k in range(n):
        if serial_store.get_blob(k) != parallel_store.get_blob(k):
            mismatched.append(k)
    return not mismatched, mismatched


def run_equivalence(
    circuit: Circuit,
    config: Optional[MemQSimConfig] = None,
    workers: int = 2,
    **overrides,
) -> EquivalenceReport:
    """Run ``circuit`` inline and with ``workers`` codec lanes.

    ``config``/``overrides`` parameterize everything else (codec, chunking,
    transfer, cache, ...); the harness only takes the
    codec pool away from one run and hands one to the other —
    ``workers=1`` is one lane thread.
    """
    from ..core.memqsim import MemQSim
    from .pool import CodecWorkerPool

    base = config if config is not None else MemQSimConfig()
    if overrides:
        base = base.with_updates(**overrides)
    rs = MemQSim(base.with_updates(workers=1)).run(circuit)
    with CodecWorkerPool(base.make_compressor(), workers=workers) as pool:
        rp = MemQSim(base, codec_pool=pool).run(circuit)
    # Densify first: flushes any cache layer so blob comparison sees the
    # final store contents on both sides.
    sv_s = rs.statevector()
    sv_p = rp.statevector()
    identical, mismatched = compare_stores(rs.store, rp.store)
    caches = [getattr(r.store, "cache_stats", None) for r in (rs, rp)]
    accesses = [(c.hits, c.misses) if c else (0, 0) for c in caches]
    tiers = [getattr(r.store, "tier_stats", None) for r in (rs, rp)]
    rep = EquivalenceReport(
        num_qubits=circuit.num_qubits,
        workers=workers,
        compressor=base.compressor,
        blobs_identical=identical,
        mismatched_chunks=mismatched,
        state_bit_identical=bool(np.array_equal(sv_s, sv_p)),
        state_max_abs_diff=float(np.max(np.abs(sv_s - sv_p)))
        if sv_s.size else 0.0,
        serial_wall_seconds=rs.wall_seconds,
        parallel_wall_seconds=rp.wall_seconds,
        serial_cache=accesses[0],
        parallel_cache=accesses[1],
        promotions=tuple(t.promotions if t else 0 for t in tiers),
    )
    if not rep.ok:
        log.warning("equivalence violation: %s", rep.summary())
    return rep


def _main() -> int:
    from ..circuits import get_workload

    for codec in ("zlib", "szlike"):
        rep = run_equivalence(
            get_workload("qft", 8), chunk_qubits=4, compressor=codec,
            compressor_options={"error_bound": 1e-6}
            if codec == "szlike" else {},
        )
        print(rep.summary())
        if not rep.ok:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
