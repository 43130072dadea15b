"""``decompress(blob, out=slot)``: every codec decodes into the caller's
array when it fits, and never into one that does not.

A slot fits when it is a writeable, C-contiguous 1-D array of the blob's
dtype and length. Then the codec returns the slot itself, holding exactly
the bytes ``decompress(blob)`` returns. Any other slot is left as it was
and a fresh array comes back (``Compressor.decompress``). Covered: every
registered codec, both precisions, each SZL1 stage (fixed-length, zlib,
the raw escape) and both lossless frames (deflate, raw).
"""

import numpy as np
import pytest

from repro.compression import (SZLikeCompressor, available_compressors,
                               get_compressor)
from repro.compression.lossless import blob_frame
from repro.compression.szlike import blob_entropy
from repro.memory import ChunkLayout, CompressedChunkStore

N = 512
DTYPES = {"c128": np.complex128, "c64": np.complex64}


def smooth(n):
    t = np.linspace(0, 4 * np.pi, n)
    return (np.cos(t) + 1j * np.sin(3 * t)) / np.sqrt(n)


def noise(n, seed=3):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
        / np.sqrt(2 * n)


def loud_noise(n):
    return noise(n) * np.sqrt(2 * n)


def half_zero(n):
    x = smooth(n)
    x[n // 2:] = 0
    return x


def cases():
    """``(label, codec, data, SZL1 stage or lossless frame or None)``."""
    out = []
    for name in available_compressors():
        out.append((name, get_compressor(name), smooth, None))
    out += [
        ("szlike:fixed", SZLikeCompressor(error_bound=1e-6), noise, "fixed"),
        ("szlike:zlib", SZLikeCompressor(error_bound=1e-6, entropy="zlib"),
         smooth, "zlib"),
        ("szlike:raw", SZLikeCompressor(error_bound=1e-14), loud_noise,
         "raw"),
        ("zlib:deflate", get_compressor("zlib"), half_zero, "deflate"),
        ("zlib:raw", get_compressor("zlib"), noise, "raw"),
    ]
    return out


CASES = cases()


def blob_of(codec, make, dtype, stage):
    blob = codec.compress(make(N).astype(dtype))
    if stage is not None:
        assert (blob_entropy(blob) or blob_frame(blob)) == stage
    return blob


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("precision", sorted(DTYPES))
@pytest.mark.parametrize("label,codec,make,stage", CASES,
                         ids=[c[0] for c in CASES])
class TestDecodeInto:
    def test_a_fitting_slot_is_decoded_into(self, label, codec, make, stage,
                                            precision):
        dtype = DTYPES[precision]
        blob = blob_of(codec, make, dtype, stage)
        want = codec.decompress(blob)
        slot = np.full(N, np.nan, dtype=dtype)
        got = codec.decompress(blob, out=slot)
        assert got is slot
        assert same_bytes(got, want)

    def test_a_slot_that_does_not_fit_is_left_alone(self, label, codec, make,
                                                    stage, precision):
        dtype = DTYPES[precision]
        other = DTYPES["c64" if precision == "c128" else "c128"]
        blob = blob_of(codec, make, dtype, stage)
        want = codec.decompress(blob)
        read_only = np.full(N, 7, dtype=dtype)
        read_only.flags.writeable = False
        slots = {
            "dtype": np.full(N, 7, dtype=other),
            "short": np.full(N - 1, 7, dtype=dtype),
            "long": np.full(N + 1, 7, dtype=dtype),
            "strided": np.full(2 * N, 7, dtype=dtype)[::2],
            "2-d": np.full((N, 1), 7, dtype=dtype),
            "read-only": read_only,
        }
        for name, slot in slots.items():
            before = slot.copy()
            got = codec.decompress(blob, out=slot)
            assert got is not slot, name
            assert same_bytes(got, want), name
            assert same_bytes(slot, before), name


class TestTheStoreLoadsIntoItsSlot:
    @pytest.mark.parametrize("itemsize", [8, 16])
    def test_load_returns_the_slot_it_decoded_into(self, itemsize):
        layout = ChunkLayout(6, 4, itemsize=itemsize)
        store = CompressedChunkStore(layout, get_compressor("zlib"))
        v = smooth(layout.num_amplitudes)
        store.init_from_statevector(v)
        seen = []
        decompress = store.compressor.decompress

        def spy(blob, out=None):
            got = decompress(blob, out=out)
            seen.append(got is out)
            return got
        store.compressor.decompress = spy
        cs = layout.chunk_size
        buf = np.empty(2 * cs, dtype=store.dtype)
        for slot, chunk in enumerate((3, 1)):
            view = buf[slot * cs:(slot + 1) * cs]
            assert store.load(chunk, out=view) is view
        assert seen == [True, True]
        want = v.astype(store.dtype)
        assert same_bytes(buf[:cs], want[3 * cs:4 * cs])
        assert same_bytes(buf[cs:], want[cs:2 * cs])

    def test_a_slot_of_another_dtype_is_copied_into(self):
        layout = ChunkLayout(6, 4, itemsize=8)
        store = CompressedChunkStore(layout, get_compressor("zlib"))
        v = smooth(layout.num_amplitudes)
        store.init_from_statevector(v)
        slot = np.empty(layout.chunk_size, dtype=np.complex128)
        assert store.load(2, out=slot) is slot
        cs = layout.chunk_size
        np.testing.assert_array_equal(
            slot, v[2 * cs:3 * cs].astype(np.complex64))
