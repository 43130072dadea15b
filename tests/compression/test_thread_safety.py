"""One codec object, several codec lane threads.

A codec lane shares the caller's compressor and the module-level state
behind it (the scratch pool, and the fixed-length stage's cached pack and
unpack plans); every thread must get exactly what a serial pass gets.
More threads than cores, and a short interpreter switch interval so
threads interleave between bytecodes as often as they can.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.compression import bitstream
from repro.compression.szlike import SZLikeCompressor, blob_entropy

THREADS = 4
ROUNDS = 3


@pytest.fixture()
def busy_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _chunks():
    rng = np.random.default_rng(5)
    out = []
    for i in range(24):
        # noise at a different scale per chunk: a different packed width
        v = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        out.append(v * 2.0 ** (i - 12))
    for i in range(8):
        # sparse chunks: the zlib stage
        v = np.zeros(1024, dtype=complex)
        v[i::97] = 0.3 - 0.1j * i
        out.append(v)
    return out


def test_lanes_match_a_serial_pass(busy_switching):
    codec = SZLikeCompressor()
    chunks = _chunks()
    blobs = [codec.compress(c) for c in chunks]
    arrays = [codec.decompress(b) for b in blobs]
    widths = {b[22] for b in blobs if blob_entropy(b) == "fixed"}
    assert len(widths) >= 8
    assert "zlib" in {blob_entropy(b) for b in blobs}
    for _ in range(ROUNDS):
        # the lanes build the pack and unpack plans concurrently
        bitstream._pack_plan.cache_clear()
        bitstream._unpack_plan.cache_clear()
        with ThreadPoolExecutor(THREADS) as lanes:
            assert list(lanes.map(codec.compress, chunks,
                                  timeout=60)) == blobs
            for got, want in zip(lanes.map(codec.decompress, blobs,
                                           timeout=60), arrays):
                assert got.tobytes() == want.tobytes()
