"""The size contract of `auto`'s fixed-length stage, on streamed chunks.

The fixed-length stage is chosen *without* running zlib, so "never worse
than zlib" — which the zlib stage is by construction — becomes a measured
contract instead. Over every chunk the codec is handed while the registry
circuits (12 qubits, chunk 8, both precisions) and the two lossy BENCH_E2E
circuits (smoke size) are streamed:

* every blob is at most 1.05x the forced-zlib blob of the same chunk;
* every circuit's total is at most 1.00x its forced-zlib total;
* the stage is lossless: both blobs decode to the same array, bit for bit;
* sparse / structured circuits never take the stage, so their blobs are
  the zlib stage's (``TestSinglePassProbe`` pins its bytes).
"""

import importlib.util
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import WORKLOADS, get_workload
from repro.compression import SZLikeCompressor
from repro.compression.szlike import blob_entropy
from repro.core import MemQSim
from repro.device import DeviceSpec

EB = 1e-6
STRUCTURED = {"ghz", "w", "qft", "grover", "bv", "trotter"}
E2E_LOSSY = ("dense_lossy", "hierarchy_spill")
E2E_WORKLOADS_PY = (Path(__file__).resolve().parents[2]
                    / "benchmarks/e2e/workloads.py")


class _NullTracer:
    def span(self, *args, **kwargs):
        return nullcontext()


def run_registry(name, precision):
    MemQSim(chunk_qubits=8, compressor="szlike",
            compressor_options={"error_bound": EB}, precision=precision,
            device=DeviceSpec(memory_bytes=16 * 1024)).run(
                get_workload(name, 12))


def run_e2e(name):
    module = sys.modules.get("e2e_workloads")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            "e2e_workloads", E2E_WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        # its dataclasses resolve annotations through sys.modules
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    workload = module.by_name(name)
    workload.prepare(0, True, _NullTracer())
    workload.op()


CASES = [pytest.param(run_registry, (name, precision),
                      id=f"{name}-{precision}")
         for name in sorted(WORKLOADS) for precision in ("c128", "c64")]
CASES += [pytest.param(run_e2e, (name,), id=f"e2e-{name}")
          for name in E2E_LOSSY]


@pytest.mark.parametrize("run,args", CASES)
def test_size_contract_on_streamed_chunks(run, args, monkeypatch):
    seen = {}  # chunk bytes -> [array, blob, times handed to the codec]
    compress = SZLikeCompressor.compress

    def recording(self, data):
        blob = compress(self, data)
        entry = seen.setdefault((data.dtype.str, data.tobytes()),
                                [np.array(data), blob, 0])
        assert entry[1] == blob  # stateless: same chunk, same blob
        entry[2] += 1
        return blob

    monkeypatch.setattr(SZLikeCompressor, "compress", recording)
    run(*args)
    monkeypatch.undo()
    assert seen

    forced = SZLikeCompressor(error_bound=EB, entropy="zlib")
    total = total_zlib = 0
    stages = set()
    for chunk, blob, count in seen.values():
        reference = forced.compress(chunk)
        assert len(blob) <= 1.05 * len(reference)
        stage = blob_entropy(blob)
        if stage == "fixed":
            decoded = forced.decompress(blob)
            expected = forced.decompress(reference)
            assert decoded.dtype == expected.dtype
            assert np.array_equal(decoded, expected)
        stages.add(stage)
        total += count * len(blob)
        total_zlib += count * len(reference)
    assert total <= total_zlib
    if args[0] in STRUCTURED:
        assert "fixed" not in stages
    if args[0] in E2E_LOSSY + ("supremacy", "qv", "random"):
        assert "fixed" in stages  # the contract is not vacuous
