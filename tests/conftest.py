"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Circuit, ghz, qft, random_circuit
from repro.core import MemQSimConfig
from repro.device import DeviceSpec, HostSpec
from repro.statevector import DenseSimulator


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def dense() -> DenseSimulator:
    return DenseSimulator()


@pytest.fixture
def small_device() -> DeviceSpec:
    """A device that forces chunk streaming for >= 8-qubit circuits."""
    return DeviceSpec(memory_bytes=(1 << 6) * 16 * 4)  # 4 buffers of 64 amps


@pytest.fixture
def tight_config(small_device) -> MemQSimConfig:
    return MemQSimConfig(
        chunk_qubits=4,
        compressor="zlib",
        device=small_device,
        host=HostSpec(memory_bytes=1 << 26),
    )


def random_state(n: int, seed: int = 0) -> np.ndarray:
    g = np.random.default_rng(seed)
    v = g.standard_normal(1 << n) + 1j * g.standard_normal(1 << n)
    return v / np.linalg.norm(v)


@pytest.fixture
def random_state_fn():
    return random_state
