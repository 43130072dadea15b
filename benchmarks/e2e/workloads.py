"""The four workloads: inputs, one operation, its dense counterpart, checks.

Each stresses a different layer (see README.md for the sizing behind every
sentence); a workload that stops stressing its layer fails its own check.
Configs use only knobs ROADMAP keeps: ``chunk_qubits, compressor,
compressor_options, device, precision, cache_chunks, cache_policy,
host_store_mb, fuse_gates``.

The seed drives rotation angles only, never which gates a circuit has: on
``supremacy_brickwork(16, seed=s)`` itself the seed picks the gates, and
seeds 0-5 differ by 29% in run time and from 1.05 to 2.68 in compression
ratio, so two seeds would not measure the same thing. The program sees
nothing but the generated circuits.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.analysis import compare_states
from repro.circuits import Circuit, qft, supremacy_brickwork, vqe_ansatz
from repro.core import MemQSim
from repro.device import DeviceSpec
from repro.observables import ising_hamiltonian
from repro.statevector import DenseSimulator

LOSSY = {"compressor": "szlike", "compressor_options": {"error_bound": 1e-6}}


def tilts(seed, count):
    """Seeded rotation angles between 45 and 135 degrees: every qubit ends
    up well inside the Bloch sphere's equatorial band, so how dense (and
    how compressible) the state is hardly depends on the seed."""
    rng = np.random.default_rng(seed)
    return rng.uniform(math.pi / 4, 3 * math.pi / 4, size=count)


def tilted_brickwork(n, seed):
    """A seeded RY on every qubit, then the generator's fixed brickwork."""
    circuit = Circuit(n, name=f"tilted_supremacy{n}")
    for qubit, angle in enumerate(tilts(seed, n)):
        circuit.ry(float(angle), qubit)
    return circuit.compose(supremacy_brickwork(n, depth=6))


def tilted_vqe(n, seed):
    return vqe_ansatz(n, layers=VQE_LAYERS,
                      params=tilts(seed, VQE_LAYERS * n * 2))


@dataclass
class Outcome:
    """What one operation produced."""

    result: object
    circuit: object
    energy: Optional[float] = None


@dataclass
class Checked:
    """What the output checks of one operation found."""

    failures: list  # sentences; empty when the operation is correct
    fidelity: float
    peak_bytes_ratio: float
    digest: Optional[str]  # what later repeats of a fixed circuit must equal
    counts: dict  # exact per-operation counters (see :func:`counters`)


VQE_LAYERS = 3


@dataclass(kw_only=True)
class Workload:
    """A fixed circuit; one operation is one ``MemQSim.run`` of it."""

    name: str
    why: str
    make: Optional[Callable]  # (qubits, seed) -> the fixed circuit
    qubits: int
    smoke_qubits: int
    config: dict
    smoke_config: dict  # overrides for --smoke; always has chunk_qubits
    device_bytes: int
    lossless: bool
    stresses_memory: bool = False
    warmups: int = 1
    smoke_ops: int = 2

    fresh_inputs = False  # True: every operation builds its own circuit

    def prepare(self, seed, smoke, tracer):
        """Build the inputs and the two simulators (untimed set-up)."""
        self.tracer = tracer
        self.n = self.smoke_qubits if smoke else self.qubits
        config = dict(self.config)
        device = self.device_bytes
        if smoke:
            # The device shrinks with the chunk, so a group pass holds as
            # many chunks as in the full run.
            device >>= config["chunk_qubits"] - self.smoke_config["chunk_qubits"]
            config.update(self.smoke_config)
        self.sim = MemQSim(device=DeviceSpec(memory_bytes=device), **config)
        self.dense = DenseSimulator()
        self._inputs(seed)

    def _inputs(self, seed):
        self.circuit = self.make(self.n, seed)

    def op(self):
        return Outcome(self.sim.run(self.circuit), self.circuit)

    def dense_op(self, circuit):
        """``(dense state, energy or None)`` for the same inputs."""
        return self.dense.run(circuit), None


class Sweep(Workload):
    """Many small jobs: fresh parameters, run, streamed energy query."""

    fresh_inputs = True

    def _inputs(self, seed):
        self.rng = np.random.default_rng(seed)
        self.hamiltonian = ising_hamiltonian(self.n, 1.0, 0.7)

    def op(self):
        params = self.rng.uniform(0.0, 2.0 * math.pi,
                                  size=VQE_LAYERS * self.n * 2)
        with self.tracer.span("circuits", "vqe_ansatz", "build"):
            circuit = vqe_ansatz(self.n, layers=VQE_LAYERS, params=params)
        result = self.sim.run(circuit)
        return Outcome(result, circuit,
                       self.hamiltonian.expectation_chunked(result))

    def dense_op(self, circuit):
        state = self.dense.run(circuit)
        return state, self.hamiltonian.expectation_dense(state)


WORKLOADS = [
    Workload(
        name="dense_lossy",
        why="high-entropy supremacy(14) state under szlike 1e-6: the codec is "
        "~80% of the run and compress outweighs decompress 4:1",
        make=tilted_brickwork,
        qubits=14, smoke_qubits=12, device_bytes=64 << 10,
        config={"chunk_qubits": 10, **LOSSY},
        smoke_config={"chunk_qubits": 9}, lossless=False),
    Workload(
        name="sparse_lossless",
        why="qft(16) from |0..0> under zlib compresses ~100x: codec and kernel "
        "are small, per-group scheduler Python is most of the run",
        make=lambda n, seed: qft(n),
        qubits=16, smoke_qubits=12, device_bytes=64 << 10,
        config={"chunk_qubits": 10, "compressor": "zlib"},
        smoke_config={"chunk_qubits": 7}, lossless=True),
    Workload(
        name="hierarchy_spill",
        why="vqe(16) in c64 with a 16-chunk belady cache over a 64 KiB host "
        "tier: the only workload where cache, tiered store and disk log work",
        make=tilted_vqe,
        qubits=16, smoke_qubits=12, device_bytes=64 << 10,
        config={"chunk_qubits": 9, **LOSSY, "precision": "c64",
                "cache_chunks": 16, "cache_policy": "belady",
                "host_store_mb": 1 / 16, "fuse_gates": True},
        smoke_config={"chunk_qubits": 7, "cache_chunks": 4,
                      "host_store_mb": 1 / 256},
        lossless=False, stresses_memory=True),
    Sweep(
        name="variational_sweep",
        why="hundreds of vqe(10) run-and-measure iterations: compile, facade "
        "set-up and streamed queries are a visible share, and there are "
        "enough samples for a tail percentile",
        make=None, qubits=10, smoke_qubits=8, device_bytes=8 << 10,
        config={"chunk_qubits": 6, "compressor": "zlib", "fuse_gates": True},
        smoke_config={"chunk_qubits": 4},
        lossless=True, warmups=20, smoke_ops=20),
]


def by_name(name):
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(name)


HIERARCHY_COUNTS = ("cache_hits", "cache_misses", "spills", "promotions")


def counters(result):
    """Counts the program made during one run; they repeat exactly. The
    cache and disk-tier ones are 0 unless the run has those tiers."""
    counts = dict.fromkeys(HIERARCHY_COUNTS, 0)
    counts["group_passes"] = result.plan.group_passes
    counts["gates_in"] = result.compile_report.gates_in
    counts["ops_out"] = result.compile_report.ops_out
    cache = getattr(result.store, "cache_stats", None)
    if cache is not None:
        counts["cache_hits"] = cache.hits
        counts["cache_misses"] = cache.misses
    for tier in result.config_echo["hierarchy"]["tiers"]:
        if tier["tier"] == "disk_blobs":
            counts["spills"] = tier["spills"]
            counts["promotions"] = tier["promotions"]
    return counts


def check(workload, outcome, dense_state, dense_energy, digest):
    """Output checks of one operation against its dense counterpart;
    ``digest`` is the state digest of the previous repeat, if any."""
    failures = []
    result = outcome.result
    fidelity = compare_states(dense_state.data, result.statevector()).fidelity
    if workload.lossless:
        if fidelity < 1.0 - 1e-12:
            failures.append(f"lossless fidelity {fidelity!r} < 1 - 1e-12")
        if not workload.fresh_inputs:
            now = result.state_digest()
            if digest is not None and now != digest:
                failures.append("state digest differs from the first repeat")
            digest = now
    else:
        if fidelity < 0.9999:
            failures.append(f"lossy fidelity {fidelity!r} < 0.9999")
        norm = result.norm()
        if abs(norm - 1.0) > 1e-3:
            failures.append(f"|norm - 1| = {abs(norm - 1.0):.3g} > 1e-3")
    if outcome.energy is not None:
        gap = abs(outcome.energy - dense_energy)
        if gap > 1e-9:
            failures.append(f"|E_streamed - E_dense| = {gap:.3g} > 1e-9")
    counts = counters(result)
    if workload.stresses_memory:
        idle = [k for k in ("cache_hits", "spills", "promotions")
                if counts[k] <= 0]
        if idle:
            failures.append(f"memory hierarchy idle: {idle} are 0")
    elif any(counts[k] for k in HIERARCHY_COUNTS):
        failures.append(f"memory hierarchy used unexpectedly: {counts}")
    peak = ((result.peak_host_bytes + result.peak_device_bytes)
            / result.dense_bytes)
    return Checked(failures, fidelity, peak, digest, counts)


def release(result):
    """Close and remove the disk log a tiered run leaves in the temp dir."""
    store = getattr(result.store, "inner", result.store)
    if hasattr(store, "close"):
        store.close()
        try:
            os.unlink(store.path)
        except OSError:
            pass
