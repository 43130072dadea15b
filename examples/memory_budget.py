"""Fit the largest circuit possible into a fixed host-memory budget.

The paper's whole point: compression raises the qubit ceiling of a given
machine. This example fixes a host budget, then walks qubit counts upward
for a structured workload, reporting the actual peak footprint until the
budget would be exceeded — and compares against the dense ceiling
(log2(budget/16)).

Run:  python examples/memory_budget.py
"""

import math

from repro.circuits import get_workload
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec, HostSpec

BUDGET = 256 << 10  # 256 KiB of host memory for the state
WORKLOAD = "ghz"


def main() -> None:
    dense_ceiling = int(math.log2(BUDGET / 16))
    print(f"host budget: {BUDGET:,} bytes")
    print(f"dense simulator ceiling: {dense_ceiling} qubits "
          f"({(1 << dense_ceiling) * 16:,} bytes)\n")

    cfg = MemQSimConfig(
        compressor="szlike",
        compressor_options={"error_bound": 1e-7},
        device=DeviceSpec(memory_bytes=64 << 10),
        host=HostSpec(memory_bytes=BUDGET),
    )

    print(f"{'qubits':>6} {'dense bytes':>14} {'memqsim peak':>14} {'fits?':>6}")
    best = None
    for n in range(dense_ceiling - 2, dense_ceiling + 7):
        circ = get_workload(WORKLOAD, n)
        try:
            res = MemQSim(cfg).run(circ)
        except MemoryError:
            print(f"{n:>6} {'-':>14} {'-':>14} {'OOM':>6}")
            break
        peak = (res.tracker.peak("chunk_store")
                + res.tracker.peak("host_buffers"))
        fits = peak <= BUDGET
        print(f"{n:>6} {(1 << n) * 16:>14,} {peak:>14,} {'yes' if fits else 'NO':>6}")
        if fits:
            best = n
        else:
            break
    if best is not None:
        print(f"\nMEMQSim ceiling on this budget: {best} qubits "
              f"(+{best - dense_ceiling} over dense) for the {WORKLOAD} workload")
        print("(structured states; random states gain ~0, as in the paper's")
        print("source work on compressed full-state simulation)")


if __name__ == "__main__":
    main()
