"""Grover search under a tight device-memory budget.

The scenario the paper motivates: the circuit's state vector does not fit
the accelerator, so MEMQSim streams compressed chunks through it. Grover on
n qubits with a marked item demonstrates the full machinery — wide
stored-diagonal oracles (chunk-local!), Hadamard stages on global qubits,
and measurement without ever densifying.

Run:  python examples/grover_search.py [n] [marked]
"""

import math
import sys

from repro.circuits import grover
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec, HostSpec


def main(n: int = 12, marked: int = 1234) -> None:
    marked %= 1 << n
    circuit = grover(n, marked=marked)
    print(f"Grover: n={n}, marked={marked} "
          f"({int(round(math.pi / 4 * math.sqrt(1 << n)))} iterations, "
          f"{len(circuit)} gates)")

    # Device far smaller than the state: 2^n amplitudes won't fit, so the
    # planner must stream chunk groups.
    state_bytes = (1 << n) * 16
    device = DeviceSpec(memory_bytes=max(4096, state_bytes // 8))
    print(f"state: {state_bytes:,} B; device: {device.memory_bytes:,} B "
          f"(fits {device.max_qubits_resident()} qubits resident)")

    cfg = MemQSimConfig(
        compressor="szlike",
        compressor_options={"error_bound": 1e-7},
        device=device,
        host=HostSpec(memory_bytes=1 << 30),
    )
    result = MemQSim(cfg).run(circuit)
    print()
    print(result.report())

    p = result.probability_of(marked)
    counts = result.sample(200, seed=3)
    hits = counts.get(format(marked, f"0{n}b"), 0)
    print(f"\nP(marked) = {p:.4f}  (ideal Grover ~ {math.sin((2 * int(round(math.pi / 4 * math.sqrt(1 << n))) + 1) * math.asin(math.sqrt(1 / (1 << n)))) ** 2:.4f})")
    print(f"sampled marked item {hits}/200 times")
    assert p > 0.5, "Grover amplification failed"


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    marked = int(sys.argv[2]) if len(sys.argv) > 2 else 1234
    main(n, marked)
