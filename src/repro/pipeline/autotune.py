"""Chunk-granularity auto-tuning (design challenge 2, closed-loop).

Experiment A1 shows the granularity trade-off is real and workload-
dependent; this module picks ``chunk_qubits`` *empirically*: it executes a
short prefix of the actual circuit at each candidate size and scores

    measured serial seconds  +  memory penalty if the working set
                                busts the host budget

The probe runs the true pipeline (codec, transfers, kernels) from a state
with full support, so every effect A1 measures — per-blob overhead,
per-pass cost, ratio — lands in the score without being modeled. Cost is
bounded: ``probe_gates`` gates per candidate (default 24) at the target
qubit count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import Circuit
from ..memory.chunkstore import CompressedChunkStore
from ..memory.layout import ChunkLayout

__all__ = ["autotune_chunk_qubits", "TuneReport"]


@dataclass(frozen=True)
class TuneReport:
    """Outcome of a tuning sweep."""

    best_chunk_qubits: int
    scores: Tuple[Tuple[int, float], ...]  # (chunk_qubits, seconds)
    probe_gates: int

    def table(self) -> str:
        lines = [f"{'chunk_qubits':>12} {'probe seconds':>14}"]
        for c, s in self.scores:
            marker = "  <-- best" if c == self.best_chunk_qubits else ""
            lines.append(f"{c:>12} {s:>14.4f}{marker}")
        return "\n".join(lines)


def autotune_chunk_qubits(
    circuit: Circuit,
    config,
    candidates: Optional[Sequence[int]] = None,
    probe_gates: int = 24,
) -> TuneReport:
    """Pick ``chunk_qubits`` by probing a circuit prefix at each candidate.

    Args:
        circuit: the full circuit (only a prefix is executed).
        config: a :class:`~repro.core.config.MemQSimConfig`; its device and
            codec settings are used as-is, ``chunk_qubits`` is overridden
            per candidate.
        candidates: chunk sizes to try (default: every feasible size from
            2 up to ``min(n - 1, AUTO_MAX_CHUNK_QUBITS)``).
        probe_gates: prefix length per probe.

    Returns:
        a :class:`TuneReport`; apply with
        ``config.with_updates(chunk_qubits=report.best_chunk_qubits)``.
    """
    from ..core.config import AUTO_MAX_CHUNK_QUBITS  # late: avoid cycle
    from ..core.memqsim import MemQSim

    n = circuit.num_qubits
    if candidates is None:
        hi = min(n - 1, AUTO_MAX_CHUNK_QUBITS)
        # The chunk (doubled for a group of 2, double-buffered) must fit
        # the device — at the resolved precision's itemsize, so c64 runs
        # probe chunk sizes a full qubit larger.
        dev_amps = config.device.memory_bytes // config.storage_itemsize()
        while hi >= 2 and (1 << (hi + 1)) * 2 > dev_amps:
            hi -= 1
        candidates = list(range(2, hi + 1))
    candidates = [c for c in candidates if 1 <= c <= n]
    if not candidates:
        raise ValueError("no feasible chunk sizes for this device/circuit")
    prefix = circuit[:probe_gates]
    # A prefix that never touches high qubits would make every candidate
    # look local-only; extend with the first global-touching gates if the
    # plain prefix is too narrow.
    touched = prefix.max_qubit_touched()
    if touched < n - 1:
        for g in list(circuit)[probe_gates:]:
            prefix.append(g)
            if max(g.qubits) >= n - 1 or len(prefix) >= 3 * probe_gates:
                break
    scores: List[Tuple[int, float]] = []
    plus = np.full(2, 0.5 ** 0.5)
    for c in candidates:
        cfg = config.with_updates(chunk_qubits=c)
        try:
            # Probe from |+...+>, a state with full support: from |0...0>
            # the sweep drops the all-zero groups, which is most of a short
            # prefix, and with them the per-pass cost the rest of the
            # circuit pays at fine granularity.
            store = CompressedChunkStore(
                ChunkLayout(n, c, itemsize=cfg.storage_itemsize()),
                cfg.make_compressor())
            store.init_product_state([plus] * n)
            res = MemQSim(cfg).run(prefix, initial_store=store)
        except (MemoryError, ValueError):
            scores.append((c, math.inf))
            continue
        scores.append((c, res.serial_seconds))
    best = min(scores, key=lambda cs: cs[1])[0]
    return TuneReport(
        best_chunk_qubits=best,
        scores=tuple(scores),
        probe_gates=len(prefix),
    )
