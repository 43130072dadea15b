"""Out-of-core simulation: the compressed state lives on disk.

The final rung of the paper's memory ladder: when even compressed blobs
outgrow RAM, MEMQSim can keep them in an on-disk append log — host RAM then
holds only the staging buffers, the device arena, and a ~48-byte index
entry per chunk. There is no store to name: ``disk_path`` with no
``host_store_mb`` is the tiered store at RAM budget 0 (give it a budget and
the plan-hottest blobs stay in RAM instead). This example runs a 20-qubit
GHZ+QFT-ish circuit out of core and prints where every byte lives.

Run:  python examples/out_of_core.py
"""

import math
import os
import tempfile

from repro.circuits import Circuit
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec, HostSpec


def workload(n: int) -> Circuit:
    c = Circuit(n, name="ghz+phases")
    c.h(0)
    for q in range(n - 1):
        c.cx(q, q + 1)
    for q in range(n):
        c.cp(math.pi / (q + 2), 0, q) if q else c.p(math.pi / 2, 0)
    return c


def main(n: int = 20) -> None:
    log = os.path.join(tempfile.gettempdir(), "memqsim_demo.log")
    cfg = MemQSimConfig(
        chunk_qubits=12,
        compressor="szlike",
        compressor_options={"error_bound": 1e-9},
        device=DeviceSpec(memory_bytes=(1 << 14) * 16),
        host=HostSpec(memory_bytes=8 << 20),
        disk_path=log,
    )
    circuit = workload(n)
    print(f"{n}-qubit circuit, dense state would be "
          f"{(1 << n) * 16 / (1 << 20):.0f} MiB")
    result = MemQSim(cfg).run(circuit)
    print(result.report())
    tr = result.tracker
    print("\nwhere the bytes live:")
    for cat in tr.categories():
        print(f"  {cat:<14} peak {tr.peak(cat):>12,} B")
    print(f"  on-disk log file: {log} "
          f"({os.path.getsize(log):,} B right now)")
    counts = result.sample(5, seed=2)
    print(f"\nsample: {counts}")
    result.store.close()
    os.unlink(log)  # a disk_path the caller names is the caller's to remove


if __name__ == "__main__":
    main()
