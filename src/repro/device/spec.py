"""Host and device capability descriptions.

These play the role of the physical machine in the paper's design: a host
(CPU) with large memory holding the compressed store, and a device (GPU)
with much smaller memory executing the amplitude-update kernels. Capacities
are enforced — the arena refuses to over-allocate — which is what forces the
chunked schedule, exactly as limited GPU memory does in the real system.

Defaults model a user-level workstation scaled to simulation sizes; tests
and benchmarks construct tighter specs to exercise capacity pressure.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DeviceSpec", "HostSpec"]


@dataclass(frozen=True)
class DeviceSpec:
    """Simulated accelerator.

    Attributes:
        memory_bytes: device memory capacity (arena size).
        name: label for reports.
    """

    memory_bytes: int = 1 << 28  # 256 MiB
    name: str = "sim-gpu"

    def fits(self, nbytes: int) -> bool:
        return nbytes <= self.memory_bytes

    def max_qubits_resident(self) -> int:
        """Largest full state vector that would fit on the device."""
        n = 0
        while (1 << (n + 1)) * 16 <= self.memory_bytes:
            n += 1
        return n


@dataclass(frozen=True)
class HostSpec:
    """Simulated host.

    Attributes:
        memory_bytes: host memory budget for the compressed store + buffers.
        name: label for reports.
    """

    memory_bytes: int = 1 << 32  # 4 GiB
    name: str = "sim-host"

    def max_qubits_dense(self) -> int:
        """Largest dense state vector the host could hold uncompressed."""
        n = 0
        while (1 << (n + 1)) * 16 <= self.memory_bytes:
            n += 1
        return n
