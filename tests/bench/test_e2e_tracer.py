"""BENCH_E2E's tracer patches callables by name from outside ``src/``.

``benchmarks/e2e/trace.py`` may not be edited by a change that claims a
gain, so a renamed or re-routed target has to fail here, in tier-1, before
the benchmark driver finds it: every target must resolve, be restored, and
the compile work of a sweep iteration must run inside the
``compile_stages`` name that :class:`~repro.core.MemQSim` looks up.
"""

import importlib.util
from pathlib import Path

import numpy as np

from repro.circuits import vqe_ansatz
from repro.core import MemQSim
from repro.device import DeviceSpec
from repro.observables import ising_hamiltonian

TRACE_PY = Path(__file__).resolve().parents[2] / "benchmarks/e2e/trace.py"


def load_trace_module():
    # Not ``import trace``: that name belongs to the standard library.
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_uninstall_round_trips():
    tracer = load_trace_module().Tracer()
    assert tracer.install() > 0
    assert tracer.uninstall() == []


def test_a_rebound_run_is_booked_to_compile_not_plan():
    tracer = load_trace_module().Tracer()
    sim = MemQSim(device=DeviceSpec(memory_bytes=8 << 10), chunk_qubits=4,
                  compressor="zlib", fuse_gates=True)
    hamiltonian = ising_hamiltonian(8, 1.0, 0.7)
    rng = np.random.default_rng(0)
    tracer.install()
    try:
        echo = []
        for _ in range(3):
            with tracer.span("harness", "op", "op", root=True):
                result = sim.run(vqe_ansatz(
                    8, layers=2, params=rng.uniform(0, 6, 32)))
                hamiltonian.expectation_chunked(result)
            echo.append(result.config_echo["plan_cache"])
    finally:
        assert tracer.uninstall() == []
    assert echo == ["miss", "rebound", "rebound"]
    ops, _seconds, buckets = tracer.summarize("op")
    assert ops == 3
    # plan_stages (forward and backward: the ansatz has no swap to hoist)
    # + describe_plan ran for the miss only; compile_stages for every run,
    # so binding is not hidden in the facade's self time.
    assert buckets["plan"]["calls"] == 3
    assert buckets["compile"]["calls"] == 3
    assert buckets["query"]["calls"] == 3
    assert buckets["facade"]["calls"] == 3
