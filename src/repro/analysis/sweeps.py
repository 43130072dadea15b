"""Parameter-sweep driver shared by benchmarks and examples.

One entry point, :func:`sweep`, runs MEMQSim over the cartesian product of
config overrides x workloads and collects a :class:`SweepRecord` per cell:
timings, memory, ratio, and (for sizes where the dense reference is cheap)
fidelity. Benchmarks stay tiny: they declare the grid and print the table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import Circuit
from ..core.config import MemQSimConfig
from ..core.memqsim import MemQSim
from ..statevector.simulator import DenseSimulator
from .fidelity import compare_states

__all__ = ["SweepRecord", "sweep", "dense_reference"]

#: densify/compare only below this qubit count (memory & time guard)
FIDELITY_MAX_QUBITS = 16


@dataclass
class SweepRecord:
    """One (workload, config) cell of a sweep."""

    workload: str
    num_qubits: int
    overrides: Dict[str, object]
    wall_seconds: float
    serial_seconds: float
    online_seconds: float
    compression_ratio: float
    peak_host_bytes: int
    peak_device_bytes: int
    dense_bytes: int
    stage_breakdown: Dict[str, float]
    group_passes: int
    num_stages: int
    fidelity: Optional[float] = None

    @property
    def qubit_headroom(self) -> float:
        return float(np.log2(max(self.compression_ratio, 1e-300)))

    @property
    def memory_saving(self) -> float:
        if self.peak_host_bytes <= 0:
            return float("inf")
        return self.dense_bytes / self.peak_host_bytes


def dense_reference(circuit: Circuit) -> np.ndarray:
    """Dense baseline state (small circuits only)."""
    return DenseSimulator().run(circuit).data


def sweep(
    workloads: Sequence[Tuple[str, Circuit]],
    base_config: Optional[MemQSimConfig] = None,
    override_grid: Optional[Dict[str, Sequence[object]]] = None,
    compute_fidelity: bool = True,
) -> List[SweepRecord]:
    """Run the cartesian sweep and return one record per cell.

    Args:
        workloads: (name, circuit) pairs.
        base_config: starting config (default :class:`MemQSimConfig`).
        override_grid: field -> list of values; the sweep covers the product.
        compute_fidelity: compare against the dense reference when feasible.
    """
    base = base_config if base_config is not None else MemQSimConfig()
    grid = override_grid or {}
    keys = list(grid.keys())
    combos: Iterable[Tuple[object, ...]] = (
        itertools.product(*(grid[k] for k in keys)) if keys else [()]
    )
    records: List[SweepRecord] = []
    combos = list(combos)
    refs: Dict[str, np.ndarray] = {}
    for name, circ in workloads:
        want_f = compute_fidelity and circ.num_qubits <= FIDELITY_MAX_QUBITS
        if want_f and name not in refs:
            refs[name] = dense_reference(circ)
        for combo in combos:
            overrides = dict(zip(keys, combo))
            cfg = base.with_updates(**overrides) if overrides else base
            res = MemQSim(cfg).run(circ)
            fid = None
            if want_f:
                fid = compare_states(refs[name], res.statevector()).fidelity
            records.append(
                SweepRecord(
                    workload=name,
                    num_qubits=circ.num_qubits,
                    overrides=overrides,
                    wall_seconds=res.wall_seconds,
                    serial_seconds=res.serial_seconds,
                    online_seconds=res.online_seconds,
                    compression_ratio=res.compression_ratio,
                    peak_host_bytes=res.peak_host_bytes,
                    peak_device_bytes=res.peak_device_bytes,
                    dense_bytes=res.dense_bytes,
                    stage_breakdown=res.stage_breakdown,
                    group_passes=res.scheduler_stats.group_passes,
                    num_stages=res.plan.num_stages,
                    fidelity=fid,
                )
            )
    return records
