"""Experiment A2 — design challenge (2), codec axis: which compressor, at
which error bound?

The paper's design is "adaptable to accommodate various compression
algorithms". This benchmark compares every registered codec on real
state-vector chunks from four workloads: ratio, error, PSNR, and
compress/decompress throughput — the numbers that drive codec choice.
"""

from __future__ import annotations

import numpy as np
import pytest

import time

from common import emit_result, print_banner, seconds
from repro.analysis import Table
from repro.circuits import get_workload
from repro.compression import evaluate_compressor, get_compressor
from repro.statevector import DenseSimulator

N = 14
WORKLOADS = ["ghz", "qft", "qaoa", "supremacy"]
CODECS = [
    ("zlib", {}),
    ("lzma", {}),
    ("bz2", {}),
    ("szlike", {"error_bound": 1e-4}),
    ("szlike", {"error_bound": 1e-6}),
    ("szlike", {"error_bound": 1e-8}),
]


def state_for(workload: str, n: int = N) -> np.ndarray:
    return DenseSimulator().run(get_workload(workload, n)).data


def generate_table(n: int = N) -> Table:
    t = Table(
        ["workload", "codec", "ratio", "max err", "psnr dB",
         "comp MB/s", "decomp MB/s"],
        title=f"A2: compressor comparison on n={n} state vectors",
    )
    for w in WORKLOADS:
        sv = state_for(w, n)
        for name, opts in CODECS:
            comp = get_compressor(name, **opts)
            rep = evaluate_compressor(comp, sv)
            mb = sv.nbytes / 1e6
            t.add(
                w, comp.describe(), f"{rep.ratio:.1f}x",
                f"{rep.max_error:.1e}",
                "inf" if rep.psnr_db == float("inf") else f"{rep.psnr_db:.0f}",
                f"{mb / max(rep.compress_seconds, 1e-9):.0f}",
                f"{mb / max(rep.decompress_seconds, 1e-9):.0f}",
            )
    return t


# -- pytest-benchmark targets ---------------------------------------------------

@pytest.fixture(scope="module")
def qft_state():
    return state_for("qft", 12)


@pytest.mark.parametrize("codec,opts", [
    ("zlib", {}), ("szlike", {"error_bound": 1e-6}),
])
def test_compress_throughput(benchmark, qft_state, codec, opts):
    comp = get_compressor(codec, **opts)
    blob = benchmark(comp.compress, qft_state)


@pytest.mark.parametrize("codec,opts", [
    ("zlib", {}), ("szlike", {"error_bound": 1e-6}),
])
def test_decompress_throughput(benchmark, qft_state, codec, opts):
    comp = get_compressor(codec, **opts)
    blob = comp.compress(qft_state)
    out = benchmark(comp.decompress, blob)
    assert out.shape == qft_state.shape


def test_codec_ordering_claims(benchmark):
    """Structured >> random compressibility; szlike beats lossless on ratio."""

    def run():
        ghz = state_for("ghz", 12)
        sup = state_for("supremacy", 12)
        z = evaluate_compressor(get_compressor("zlib"), ghz)
        s = evaluate_compressor(get_compressor("szlike", error_bound=1e-6), sup)
        z_sup = evaluate_compressor(get_compressor("zlib"), sup)
        return z, s, z_sup

    z_ghz, sz_sup, z_sup = benchmark.pedantic(run, rounds=1, iterations=1)
    assert z_ghz.ratio > 20  # GHZ is almost all zeros
    assert sz_sup.ratio > z_sup.ratio  # lossy beats lossless on random states


if __name__ == "__main__":
    print_banner(__doc__.splitlines()[0])
    t0 = time.perf_counter()
    table = generate_table()
    wall = time.perf_counter() - t0
    print(table.render())
    emit_result("A2", title=__doc__.splitlines()[0],
                params={"num_qubits": N, "workloads": WORKLOADS},
                metrics={"wall_seconds": seconds(wall)},
                tables=[table])
