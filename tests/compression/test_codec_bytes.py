"""Every byte the codecs emit over a corpus of real chunks, pinned.

The corpus is every chunk ``szlike`` and ``zlib`` are handed while

* the four BENCH_E2E circuits stream at their smoke sizes (the same
  configs, rebuilt here from the public API), and
* every registry circuit streams at 12 qubits, chunk 8, in both
  precisions, under ``szlike``.

The lossy runs are fused; their windows are the ones the corpus was
recorded with, the partition of window fusion capped at 3 qubits
(``tests/compile/caps.py``), not the launch-cost model's, so the
corpus is a codec fixture and not a record of the fusion policy.

A run contributes at most :data:`RUN_CAP` distinct chunks and is stopped
there: ``grover`` at 12 qubits streams 4,815 group passes, more than all
other runs together, and its later chunks add time, not new cases.

Each distinct chunk is then encoded by ``zlib`` and by ``szlike`` under
each entropy setting. Pinned: how many chunks there are and their digest
(a lossy run feeds its own output back, so this pins the codec's in-run
bytes too), and per codec, entropy setting and chosen stage (for zlib, its
frame: deflate or raw), the count, the digest of the concatenated blobs
and of the decoded arrays. A blob's
deflate stream is digested inflated: the deflate bytes belong to whichever
zlib the interpreter links, the rest of the frame is ours. The digests were
recorded before the codec's per-call overhead was cut; any rewrite of the
codec must reproduce them unchanged.

zlib's one group split in two when it gained the raw frame: ``zlib:raw``
holds the chunks its probe stores raw, recorded with the raw frame, and
``zlib:deflate`` the rest, whose digests are the ones the zlib without a
raw frame gives over those same chunks (computed with it, not re-recorded).

When both codecs gained the uniform frame, each moved a chunk of one
repeated amplitude (113 of the 1,264) to a new ``:uniform`` group, recorded
with that frame. The corpus moved with them: a lossy run now decodes such
a chunk exactly, not on the quantisation lattice, and feeds that back, so
the chunk count stayed 720 + 544 and the digest changed. Every other
group's digests are the ones the codecs without the uniform frame give
over the same corpus's other 1,151 chunks (computed with them, not
re-recorded): no chunk that is not uniform changed a byte.
"""

import functools
import hashlib
import math
import struct
import zlib
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest

import repro.core.memqsim as facade
from repro.circuits import (WORKLOADS, Circuit, get_workload, qft,
                            supremacy_brickwork, vqe_ansatz)
from repro.compile import compile_stages
from repro.compression import SZLikeCompressor, ZlibCompressor
from repro.compression.interface import split_dtype
from repro.compression.lossless import blob_frame
from repro.compression.szlike import blob_entropy
from repro.core import MemQSim
from repro.device import DeviceSpec
from tests.compile.caps import window_cap

LOSSY = {"compressor": "szlike", "compressor_options": {"error_bound": 1e-6}}


def tilts(seed, count):
    rng = np.random.default_rng(seed)
    return rng.uniform(math.pi / 4, 3 * math.pi / 4, size=count)


def tilted_brickwork(n, seed=0):
    circuit = Circuit(n, name=f"tilted_supremacy{n}")
    for qubit, angle in enumerate(tilts(seed, n)):
        circuit.ry(float(angle), qubit)
    return circuit.compose(supremacy_brickwork(n, depth=6))


def e2e_smoke_runs():
    """``(label, circuit, config)`` of BENCH_E2E's four smoke runs."""
    yield ("dense_lossy", tilted_brickwork(12),
           dict(chunk_qubits=9, device=DeviceSpec(memory_bytes=32 << 10),
                **LOSSY))
    yield ("sparse_lossless", qft(12),
           dict(chunk_qubits=7, device=DeviceSpec(memory_bytes=8 << 10),
                compressor="zlib"))
    yield ("hierarchy_spill", vqe_ansatz(12, layers=3, params=tilts(0, 72)),
           dict(chunk_qubits=7, device=DeviceSpec(memory_bytes=16 << 10),
                precision="c64", cache_chunks=4, cache_policy="belady",
                host_store_mb=1 / 256, fuse_gates=True, **LOSSY))
    params = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, size=48)
    yield ("variational_sweep", vqe_ansatz(8, layers=3, params=params),
           dict(chunk_qubits=4, device=DeviceSpec(memory_bytes=2 << 10),
                compressor="zlib", fuse_gates=True))


def registry_runs():
    for name in sorted(WORKLOADS):
        for precision in ("c128", "c64"):
            yield (f"{name}/{precision}", get_workload(name, 12),
                   dict(chunk_qubits=8, precision=precision,
                        device=DeviceSpec(memory_bytes=16 << 10), **LOSSY))


RUN_CAP = 200


class _Capped(Exception):
    """A run reached :data:`RUN_CAP` distinct chunks."""


def collect_corpus():
    """Every distinct chunk handed to a codec, in first-seen order."""
    seen, corpus, taken = set(), [], [0]
    originals = {cls: cls.compress for cls in (SZLikeCompressor,
                                               ZlibCompressor)}

    def recording(cls):
        def compress(self, data):
            chunk = np.array(data, copy=True)
            key = (chunk.dtype.str, chunk.tobytes())
            if key not in seen:
                if taken[0] == RUN_CAP:
                    raise _Capped
                taken[0] += 1
                seen.add(key)
                corpus.append(chunk)
            return originals[cls](self, data)
        return compress

    capped = functools.partial(compile_stages, pricing=window_cap(3))
    try:
        for cls in originals:
            cls.compress = recording(cls)
        for _label, circuit, config in (*e2e_smoke_runs(), *registry_runs()):
            taken[0] = 0
            try:
                with mock.patch.object(facade, "compile_stages", capped):
                    MemQSim(**config).run(circuit)
            except _Capped:
                pass
    finally:
        for cls, compress in originals.items():
            cls.compress = compress
    return corpus


def canonical(blob):
    """``blob`` with its deflate stream inflated (see the module note)."""
    _dtype, frame = split_dtype(blob)
    head = len(blob) - len(frame)
    if frame[:4] == b"LSL1":
        at = head + 12
    elif blob_entropy(blob) == "raw":
        at = head + 22
    elif blob_entropy(blob) == "zlib":
        at = head + 23
    else:
        return blob
    return blob[:at] + zlib.decompress(blob[at:])


CODECS = {
    "zlib": ZlibCompressor(),
    "szlike:auto": SZLikeCompressor(error_bound=1e-6),
    "szlike:zlib": SZLikeCompressor(error_bound=1e-6, entropy="zlib"),
}


def digests(corpus):
    inputs = hashlib.sha256()
    for chunk in corpus:
        inputs.update(chunk.dtype.str.encode() + chunk.tobytes())
    c64 = sum(chunk.dtype == np.complex64 for chunk in corpus)
    out = {"corpus": (len(corpus) - c64, c64, inputs.hexdigest())}
    for label, codec in CODECS.items():
        groups = defaultdict(lambda: [0, hashlib.sha256(), hashlib.sha256()])
        for chunk in corpus:
            blob = codec.compress(chunk)
            back = codec.decompress(blob)
            assert back.dtype == chunk.dtype
            group = groups[f"{label}:{blob_entropy(blob) or blob_frame(blob)}"]
            group[0] += 1
            group[1].update(struct.pack("<Q", len(blob)) + canonical(blob))
            group[2].update(back.tobytes())
        for key, (count, blobs, decoded) in groups.items():
            out[key] = (count, blobs.hexdigest(), decoded.hexdigest())
    return out


PINNED = {
    "corpus": (
        720,
        544,
        "8e54ca62d659a2ea5dc775526ed8028f7f09a4269b76e67f4f4de2285f3e1dee",
    ),
    "szlike:auto:fixed": (
        630,
        "32e5f957aaae83eb98ace772d43bed198dcdf92be4ecf09cc1a313e959551f99",
        "9fa7fb6753f38b0479e653cec6d4182e90d9a8e084a0f83248282a7926788361",
    ),
    "szlike:auto:uniform": (
        113,
        "2ff9d828962b2fb71990de45615d9f403990a48b775c63f2109157e52ca098fd",
        "dcd69aecc3e02058e84344a010dc98b05e97e5667b55a4c5195d8515a50263a9",
    ),
    "szlike:auto:zlib": (
        521,
        "a1620860db503bde97449f8ce953f849e431fe84c3d097ea0f2d79ab424c7608",
        "28416b2d4ebc6f756fd0ca9f010acc6792608865390d7b7cdb094e9e7229132f",
    ),
    "szlike:zlib:uniform": (
        113,
        "2ff9d828962b2fb71990de45615d9f403990a48b775c63f2109157e52ca098fd",
        "dcd69aecc3e02058e84344a010dc98b05e97e5667b55a4c5195d8515a50263a9",
    ),
    "szlike:zlib:zlib": (
        1151,
        "a4982c7104d5b691bef328385e1ae14da006e2fb17b47c1457821adbef17498b",
        "9c15e2a248e4334c61d16250e3e938fc89bc6191b92a694eba91b3d6255e3e98",
    ),
    "zlib:deflate": (
        470,
        "1454c1fccd9bb2d81e31c9bc88bca3e1a86d8a8003f96515fbc7bf25b3689b15",
        "3366b1d13545cfccfaebc33ab5d2afcfcbf46cec610f4169053037c4e56d2022",
    ),
    "zlib:raw": (
        681,
        "c0734c6cf5cd26beafba89afd5917efc54bb6c61ace47c6a51de8f7091d459f9",
        "4da7101fb98afe960d79c1a31f803d618276231f7f510a35e7773a74dbe12738",
    ),
    "zlib:uniform": (
        113,
        "bbe682a87fbb57748ca81d64eb8dcc3f8d04743300b88414b2ab91b38c3cf26f",
        "dcd69aecc3e02058e84344a010dc98b05e97e5667b55a4c5195d8515a50263a9",
    ),
}


@pytest.fixture(scope="module")
def measured():
    return digests(collect_corpus())


def test_corpus_covers_both_precisions_and_the_auto_stages(measured):
    c128, c64, _digest = measured["corpus"]
    assert c128 > 0 and c64 > 0
    # real chunks take `auto` to both of its stages, fixed-length and zlib
    stages = {key.rsplit(":", 1)[1] for key in measured
              if key.startswith("szlike:auto:")}
    assert {"fixed", "zlib"} <= stages, stages


@pytest.mark.parametrize("key", sorted(PINNED))
def test_bytes_are_pinned(measured, key):
    assert measured.get(key) == PINNED[key]


def test_no_stage_appears_unpinned(measured):
    assert sorted(measured) == sorted(PINNED)
