"""Experiment CD1 — codec stage throughput: fixed-length packing vs zlib, deflate vs raw vs uniform frames.

The codec is the per-chunk hot path: every stage pass pays one decompress
and one compress per chunk, so entropy-stage throughput bounds how far the
pipeline can hide codec work behind kernels. szlike has two entropy
stages, and this bench measures both on the same minimal-width symbol
stream, across chunk sizes 2^10..2^20 and three alphabet regimes:

* fixed-length ``pack_fixed`` / ``unpack_fixed`` (the stage szlike's
  ``auto`` takes on noise, the ``wide`` regime), and
* zlib encode/decode (the stage it takes on everything else),

in effective MB/s of decoded int64 payload, with each stage's size.

The lossless codec has three frames: ``LSL1`` deflates a chunk, ``LSR1``
stores its bytes and ``LSU1`` the one amplitude a uniform chunk repeats.
A second table times deflate and raw, encode and decode (into a slot, as
the chunk store decodes) in microseconds per call, on 1 KiB and 16 KiB
complex128 chunks of a dense state, a uniform one and a structured one
(a uniform head, a zero tail), with zlib's probe (which picks the frame)
timed alone and the frame it picks. A third times the uniform frame on
the uniform chunk, zlib's ``LSU1`` and szlike's flag-2 frame, against
what each codec did with that chunk before (deflate, szlike's quantised
stream), and the uniform test alone: accepting the uniform chunk and
rejecting the structured one.
"""

from __future__ import annotations

import time
import zlib
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from common import FULL, emit_result, print_banner, seconds
from repro.analysis import Table
from repro.compression import NullCompressor, SZLikeCompressor, ZlibCompressor
from repro.compression import szlike
from repro.compression.bitstream import pack_fixed, unpack_fixed
from repro.compression.interface import uniform_amplitude
from repro.compression.lossless import _DEFLATE, _is_noise, blob_frame
from repro.compression.szlike import blob_entropy

#: chunk sizes swept (elements); FULL adds the top sizes.
SIZES_FAST = [1 << 10, 1 << 12, 1 << 14, 1 << 16]
SIZES_FULL = SIZES_FAST + [1 << 18, 1 << 20]

KINDS = ("narrow", "typical", "wide")

REPEATS = 3


def make_stream(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Symbol streams mirroring the zigzag-delta regimes szlike produces."""
    if kind == "narrow":  # smooth chunk: deltas hug zero, tiny alphabet
        return rng.geometric(0.3, size=n).astype(np.int64)
    if kind == "typical":  # structured state: mid-size skewed alphabet
        return rng.geometric(0.02, size=n).astype(np.int64)
    if kind == "wide":  # noisy chunk: thousands of near-uniform symbols
        return rng.integers(0, 1 << 13, size=n).astype(np.int64)
    raise ValueError(kind)


def _time(fn, repeats: int = REPEATS):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def stages(vals: np.ndarray):
    """The two stages' inputs and payloads for one stream: ``(symbols,
    width, packed, narrow, deflated)``."""
    symbols = vals.view(np.uint64)
    width = int(vals.max()).bit_length()
    narrow = vals.astype(np.uint16 if vals.max() < 1 << 16 else np.uint32)
    return (symbols, width, pack_fixed(symbols, width), narrow,
            zlib.compress(narrow, 1))


def measure(kind: str, n: int, rng: np.random.Generator) -> dict:
    vals = make_stream(kind, n, rng)
    symbols, width, packed, narrow, zblob = stages(vals)
    assert np.array_equal(unpack_fixed(packed, n, width), symbols)
    return {
        "kind": kind,
        "n": n,
        "alphabet": int(np.unique(vals).size),
        "width": width,
        "zlib_bytes": len(zblob),
        "zlib_enc_s": _time(lambda: zlib.compress(narrow, 1)),
        "zlib_dec_s": _time(lambda: zlib.decompress(zblob)),
        "fixed_bytes": len(packed),
        "fixed_enc_s": _time(lambda: pack_fixed(symbols, width)),
        "fixed_dec_s": _time(lambda: unpack_fixed(packed, n, width)),
    }


def generate_table(sizes=None, kinds=KINDS):
    rng = np.random.default_rng(7)
    sizes = sizes if sizes is not None else (SIZES_FULL if FULL else SIZES_FAST)
    t = Table(
        ["stream", "n", "alphabet", "width", "zlib enc MB/s",
         "zlib dec MB/s", "fixed enc MB/s", "fixed dec MB/s",
         "fixed/zlib size"],
        title="CD1: entropy-stage throughput (int64 payload MB/s)",
    )
    rows = []
    for kind in kinds:
        for n in sizes:
            row = measure(kind, n, rng)
            rows.append(row)
            mb = n * 8 / 1e6
            t.add(
                kind, str(n), str(row["alphabet"]), str(row["width"]),
                f"{mb / row['zlib_enc_s']:.0f}",
                f"{mb / row['zlib_dec_s']:.0f}",
                f"{mb / row['fixed_enc_s']:.0f}",
                f"{mb / row['fixed_dec_s']:.0f}",
                f"{row['fixed_bytes'] / row['zlib_bytes']:.2f}",
            )
    return t, rows


#: lossless-frame chunks: 1 KiB and 16 KiB of complex128 amplitudes
FRAME_SIZES = [64, 1024]
FRAME_KINDS = ("dense", "uniform", "structured")
#: calls per timed loop; a frame's call takes microseconds
FRAME_CALLS = 200


class _DeflateEvery(ZlibCompressor):
    """zlib with every chunk deflated: the ``LSL1`` frame on its own."""

    def _frame(self, data):
        return _DEFLATE, self._encode(data)


def make_chunk(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "dense":  # a dense state: deflate cannot shrink it
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return v / np.linalg.norm(v)
    if kind == "uniform":  # qft of |0...0>: one amplitude, repeated
        return np.full(n, 1 / np.sqrt(n), dtype=np.complex128)
    if kind == "structured":  # repeats, but is not one amplitude
        x = np.full(n, 1 / np.sqrt(n / 2), dtype=np.complex128)
        x[n // 2:] = 0
        return x
    raise ValueError(kind)


def _words(x):
    return memoryview(x).cast("B").cast("Q")


def _us_per_call(fn, repeats: int = REPEATS):
    return _time(lambda: [fn() for _ in range(FRAME_CALLS)],
                 repeats) / FRAME_CALLS * 1e6


def measure_frames(kind: str, n: int, rng: np.random.Generator) -> dict:
    x = make_chunk(kind, n, rng)
    slot = np.empty_like(x)
    row = {"kind": kind, "n": n, "kib": x.nbytes // 1024,
           "picked": blob_frame(ZlibCompressor().compress(x)),
           "probe_us": _us_per_call(lambda: _is_noise(_words(x)))}
    for frame, codec in (("deflate", _DeflateEvery()),
                         ("raw", NullCompressor())):
        blob = codec.compress(x)
        assert blob_frame(blob) == frame
        assert np.array_equal(ZlibCompressor().decompress(blob, out=slot), x)
        row[f"{frame}_bytes"] = len(blob)
        row[f"{frame}_enc_us"] = _us_per_call(lambda: codec.compress(x))
        row[f"{frame}_dec_us"] = _us_per_call(
            lambda: ZlibCompressor().decompress(blob, out=slot))
    return row


def generate_frame_table(sizes=FRAME_SIZES, kinds=FRAME_KINDS):
    rng = np.random.default_rng(7)
    t = Table(
        ["chunk", "KiB", "zlib picks", "deflate B", "raw B",
         "deflate enc us", "raw enc us", "deflate dec us", "raw dec us",
         "probe us"],
        title="CD1: lossless frames (us per call, complex128 chunks)",
    )
    rows = []
    for kind in kinds:
        for n in sizes:
            row = measure_frames(kind, n, rng)
            rows.append(row)
            t.add(kind, str(row["kib"]), row["picked"],
                  str(row["deflate_bytes"]), str(row["raw_bytes"]),
                  *(f"{row[k]:.1f}" for k in (
                      "deflate_enc_us", "raw_enc_us", "deflate_dec_us",
                      "raw_dec_us", "probe_us")))
    return t, rows


def measure_uniform(n: int) -> dict:
    """The uniform frame against what each codec did with the chunk before
    it had one, and the uniform test's accept and reject costs."""
    x = make_chunk("uniform", n, None)
    structured = make_chunk("structured", n, None)
    slot = np.empty_like(x)
    row = {"n": n, "kib": x.nbytes // 1024,
           "accept_us": _us_per_call(lambda: uniform_amplitude(x, _words(x))),
           "reject_us": _us_per_call(
               lambda: uniform_amplitude(structured, _words(structured)))}
    lsz = SZLikeCompressor()
    quantised = mock.patch.object(szlike, "uniform_amplitude",
                                  lambda data, words=None: None)
    for name, codec, stage, sniff in (
            ("lsu1", ZlibCompressor(), "uniform", blob_frame),
            ("lsl1", _DeflateEvery(), "deflate", blob_frame),
            ("szl_uniform", lsz, "uniform", blob_entropy),
            ("szl_quantised", lsz, "zlib", blob_entropy)):
        with quantised if name == "szl_quantised" else nullcontext():
            blob = codec.compress(x)
            row[f"{name}_enc_us"] = _us_per_call(lambda: codec.compress(x))
        assert sniff(blob) == stage, (name, sniff(blob))
        assert np.allclose(codec.decompress(blob, out=slot), x, atol=1e-6)
        row[f"{name}_bytes"] = len(blob)
        row[f"{name}_dec_us"] = _us_per_call(
            lambda: codec.decompress(blob, out=slot))
    return row


UNIFORM_CODECS = ("lsu1", "lsl1", "szl_uniform", "szl_quantised")


def generate_uniform_table(sizes=FRAME_SIZES):
    t = Table(
        ["KiB", "LSU1 B", "LSL1 B", "SZL1 uniform B", "SZL1 quantised B",
         *(f"{c} {op} us" for c in UNIFORM_CODECS for op in ("enc", "dec")),
         "test accept us", "test reject us"],
        title="CD1: the uniform frame on a uniform complex128 chunk "
              "(us per call); the test rejects a structured one",
    )
    rows = []
    for n in sizes:
        row = measure_uniform(n)
        rows.append(row)
        t.add(str(row["kib"]),
              *(str(row[f"{c}_bytes"]) for c in UNIFORM_CODECS),
              *(f"{row[f'{c}_{op}_us']:.1f}" for c in UNIFORM_CODECS
                for op in ("enc", "dec")),
              f"{row['accept_us']:.2f}", f"{row['reject_us']:.2f}")
    return t, rows


# -- pytest-benchmark targets ---------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_both_stages_round_trip_at_scale(benchmark, kind):
    rng = np.random.default_rng(7)
    n = 1 << 16
    vals = make_stream(kind, n, rng)
    symbols, width, packed, narrow, zblob = stages(vals)

    def run():
        return (unpack_fixed(packed, n, width),
                np.frombuffer(zlib.decompress(zblob), dtype=narrow.dtype))

    fixed, deflated = benchmark.pedantic(run, rounds=3, iterations=1)
    assert np.array_equal(fixed, symbols)
    assert np.array_equal(deflated, vals)


def test_zlib_picks_raw_for_dense_and_deflate_for_structured_chunks(
        benchmark):
    rng = np.random.default_rng(7)

    def run():
        return [measure_frames(kind, n, rng) for kind in FRAME_KINDS
                for n in FRAME_SIZES]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for row in rows:
        if row["kind"] == "uniform":
            assert row["picked"] == "uniform", row
        elif row["kind"] == "structured":
            assert row["picked"] == "deflate", row
            assert row["deflate_bytes"] < row["raw_bytes"] / 20, row
        else:
            # the trade: deflate shrinks a dense 16 KiB chunk by ~4 %, and
            # costs tens of times the raw frame's microseconds to do it
            assert row["picked"] == "raw", row
            assert row["raw_bytes"] < 1.05 * row["deflate_bytes"], row


def test_the_uniform_frame_is_one_amplitude(benchmark):
    rows = benchmark.pedantic(
        lambda: [measure_uniform(n) for n in FRAME_SIZES],
        rounds=1, iterations=1)
    for row in rows:
        # the header and one amplitude, at any chunk size
        assert row["lsu1_bytes"] == 12 + 16, row
        assert row["szl_uniform_bytes"] == 22 + 16, row
        assert row["lsl1_bytes"] > row["lsu1_bytes"], row


if __name__ == "__main__":
    print_banner(__doc__.splitlines()[0])
    t0 = time.perf_counter()
    table, rows = generate_table()
    frame_table, frame_rows = generate_frame_table()
    uniform_table, uniform_rows = generate_uniform_table()
    wall = time.perf_counter() - t0
    print(table.render())
    print(frame_table.render())
    print(uniform_table.render())

    at16 = [r for r in rows if r["n"] == 1 << 16]
    metrics = {
        "wall_seconds": seconds(wall),
        # both stages at the 2^16 chunk scale, per regime
        **{f"{name}_s_{r['kind']}_65536": seconds(r[f"{name}_s"])
           for r in at16
           for name in ("fixed_enc", "fixed_dec", "zlib_enc", "zlib_dec")},
        # the lossless frames per chunk kind and size, and zlib's probe
        **{f"frame_{name}_s_{r['kind']}_{r['kib']}KiB":
           seconds(r[f"{name}_us"] * 1e-6)
           for r in frame_rows
           for name in ("deflate_enc", "deflate_dec", "raw_enc", "raw_dec")},
        **{f"probe_s_{r['kib']}KiB": seconds(r["probe_us"] * 1e-6)
           for r in frame_rows if r["kind"] == "dense"},
        # the uniform frame and what the uniform chunk cost before it
        **{f"uniform_{c}_{op}_s_{r['kib']}KiB":
           seconds(r[f"{c}_{op}_us"] * 1e-6)
           for r in uniform_rows
           for c in UNIFORM_CODECS for op in ("enc", "dec")},
        **{f"uniform_test_{what}_s_{r['kib']}KiB":
           seconds(r[f"{what}_us"] * 1e-6)
           for r in uniform_rows for what in ("accept", "reject")},
    }
    emit_result("CD1", title=__doc__.splitlines()[0],
                params={"sizes": SIZES_FULL if FULL else SIZES_FAST,
                        "repeats": REPEATS, "frame_sizes": FRAME_SIZES,
                        "frame_calls": FRAME_CALLS},
                metrics=metrics,
                tables=[table, frame_table, uniform_table],
                extra={"rows": [
                    {k: (round(v, 6) if isinstance(v, float) else v)
                     for k, v in r.items()} for r in rows],
                    "frame_rows": [
                    {k: (round(v, 3) if isinstance(v, float) else v)
                     for k, v in r.items()} for r in frame_rows],
                    "uniform_rows": [
                    {k: (round(v, 3) if isinstance(v, float) else v)
                     for k, v in r.items()} for r in uniform_rows]})
