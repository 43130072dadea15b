"""One codec object, several codec lane threads.

A codec lane shares the caller's compressor and the module-level state
behind it (the Huffman code cache, the scratch pool); every thread must
get exactly what a serial pass gets. More threads than cores, and a
short interpreter switch interval so threads interleave between bytecodes
as often as they can.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.compression import huffman
from repro.compression.szlike import SZLikeCompressor

THREADS = 4
#: more distinct codes than the Huffman code cache holds, so lanes evict
#: entries other lanes are looking up
CHUNKS = 2 * huffman._CODE_CACHE_MAX + 8
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
    for i in range(CHUNKS):
        # a different spread per chunk: a different code alphabet
        v = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        out.append(v * (1 + i) / 1024)
    return out


def test_huffman_lanes_match_a_serial_pass(monkeypatch, busy_switching):
    codec = SZLikeCompressor(error_bound=1e-3, entropy="huffman")
    chunks = _chunks()
    blobs = [codec.compress(c) for c in chunks]
    # the serial decode pass meets more distinct codes than the cache holds
    codes = set()
    parse = huffman._parse

    def noting_parse(blob):
        parsed = parse(blob)
        codes.add(parsed[1].to_bytes())  # the cache key
        return parsed

    monkeypatch.setattr(huffman, "_parse", noting_parse)
    arrays = [codec.decompress(b) for b in blobs]
    monkeypatch.undo()
    assert len(codes) > huffman._CODE_CACHE_MAX
    with ThreadPoolExecutor(THREADS) as lanes:
        for _ in range(ROUNDS):
            assert list(lanes.map(codec.compress, chunks,
                                  timeout=60)) == blobs
            for got, want in zip(lanes.map(codec.decompress, blobs,
                                           timeout=60), arrays):
                assert got.tobytes() == want.tobytes()
