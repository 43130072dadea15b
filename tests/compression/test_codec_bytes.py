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
        "4e0079c97e7be338a9e595b0a9cc96a391e00ce915c7fb1cb0373b9ef0caaf32",
    ),
    "szlike:auto:fixed": (
        630,
        "32e5f957aaae83eb98ace772d43bed198dcdf92be4ecf09cc1a313e959551f99",
        "9fa7fb6753f38b0479e653cec6d4182e90d9a8e084a0f83248282a7926788361",
    ),
    "szlike:auto:zlib": (
        634,
        "be4e7d38f02f3a01c8ef03304a919a39fb1300006b0d62db3d2cdea2ef2543e4",
        "ff2192f33cb450a8bb0ef380cc45e50554f87d7d8728b613ab7445a3d54b934e",
    ),
    "szlike:zlib:zlib": (
        1264,
        "6d2650dee57ed0add75339a6ad38a58b8a766a9a85671e4f17a1ef16982aaab3",
        "c04bd41216ab6628ea2a981aa060e6c064a266712d64c38940b69e8d71d9cba6",
    ),
    "zlib:deflate": (
        583,
        "df22a573188de27c4dc44dbc0667d642e9c15f9f9e08e673b651a6549df3ea00",
        "bd7e9fb381775cffef0b22634b2de43dabba21fe979eb42a6c5b0d12c4758aad",
    ),
    "zlib:raw": (
        681,
        "c0734c6cf5cd26beafba89afd5917efc54bb6c61ace47c6a51de8f7091d459f9",
        "4da7101fb98afe960d79c1a31f803d618276231f7f510a35e7773a74dbe12738",
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
