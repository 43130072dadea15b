"""Experiment CD1 — entropy-codec throughput: LUT Huffman vs trie vs zlib vs fixed-length.

The codec is the per-chunk hot path: every stage pass pays one decompress
and one compress per chunk, so entropy-stage throughput bounds how far the
pipeline can hide codec work behind kernels. This bench measures, across
chunk sizes 2^10..2^20 and three alphabet regimes:

* Huffman encode and decode throughput (the table-driven ``decode`` against
  the per-bit ``decode_trie`` oracle it replaced), and
* zlib encode/decode of the same minimal-width symbol stream, and
* on the ``wide`` stream — the noise regime szlike's ``auto`` bit-packs
  instead of deflating — fixed-length ``pack_fixed`` / ``unpack_fixed``,

in symbols/s and effective MB/s of decoded int64 payload. The headline
metric gates in CI: at 2^16 elements the LUT decoder must hold a >= 10x
edge over the trie walk, the margin that justified lifting the szlike
Huffman caps (``_HUFFMAN_MAX_ELEMENTS``/``_HUFFMAN_MAX_ALPHABET``).
"""

from __future__ import annotations

import time
import zlib

import numpy as np
import pytest

from common import FULL, emit_result, paired_ratio, print_banner, seconds
from repro.analysis import Table
from repro.compression import huffman
from repro.compression.bitstream import pack_fixed, unpack_fixed

#: chunk sizes swept (elements); FULL adds the top sizes.
SIZES_FAST = [1 << 10, 1 << 12, 1 << 14, 1 << 16]
SIZES_FULL = SIZES_FAST + [1 << 18, 1 << 20]

#: trie decode is only timed up to this size (it is the slow baseline).
TRIE_MAX = 1 << 16

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


def measure(kind: str, n: int, rng: np.random.Generator) -> dict:
    vals = make_stream(kind, n, rng)
    blob = huffman.encode(vals)
    assert np.array_equal(huffman.decode(blob), vals)
    row = {
        "kind": kind,
        "n": n,
        "alphabet": int(np.unique(vals).size),
        "huff_bytes": len(blob),
        "enc_s": _time(lambda: huffman.encode(vals)),
        "dec_s": _time(lambda: huffman.decode(blob)),
    }
    if n <= TRIE_MAX:
        row["trie_s"] = _time(lambda: huffman.decode_trie(blob), repeats=1)
    narrow = vals.astype(np.uint16 if vals.max() < 1 << 16 else np.uint32)
    zblob = zlib.compress(narrow.tobytes(), 1)
    row["zlib_bytes"] = len(zblob)
    row["zlib_enc_s"] = _time(lambda: zlib.compress(narrow.tobytes(), 1))
    row["zlib_dec_s"] = _time(lambda: zlib.decompress(zblob))
    if kind == "wide":
        symbols = vals.view(np.uint64)
        width = int(vals.max()).bit_length()
        packed = pack_fixed(symbols, width)
        assert np.array_equal(unpack_fixed(packed, n, width), symbols)
        row["fixed_bytes"] = len(packed)
        row["fixed_enc_s"] = _time(lambda: pack_fixed(symbols, width))
        row["fixed_dec_s"] = _time(lambda: unpack_fixed(packed, n, width))
    return row


def generate_table(sizes=None, kinds=("narrow", "typical", "wide")):
    rng = np.random.default_rng(7)
    sizes = sizes if sizes is not None else (SIZES_FULL if FULL else SIZES_FAST)
    t = Table(
        ["stream", "n", "alphabet", "huff dec MB/s", "trie dec MB/s",
         "LUT/trie", "zlib enc MB/s", "zlib dec MB/s", "huff/zlib size",
         "fixed enc MB/s", "fixed dec MB/s", "fixed/zlib size"],
        title="CD1: entropy-codec throughput (int64 payload MB/s)",
    )
    rows = []
    for kind in kinds:
        for n in sizes:
            row = measure(kind, n, rng)
            rows.append(row)
            mb = n * 8 / 1e6
            t.add(
                kind, str(n), str(row["alphabet"]),
                f"{mb / row['dec_s']:.0f}",
                f"{mb / row['trie_s']:.0f}" if "trie_s" in row else "-",
                f"{row['trie_s'] / row['dec_s']:.1f}x" if "trie_s" in row else "-",
                f"{mb / row['zlib_enc_s']:.0f}",
                f"{mb / row['zlib_dec_s']:.0f}",
                f"{row['huff_bytes'] / row['zlib_bytes']:.2f}",
                *((f"{mb / row['fixed_enc_s']:.0f}",
                   f"{mb / row['fixed_dec_s']:.0f}",
                   f"{row['fixed_bytes'] / row['zlib_bytes']:.2f}")
                  if "fixed_bytes" in row else ("-", "-", "-")),
            )
    return t, rows


# -- pytest-benchmark targets ---------------------------------------------------

@pytest.mark.parametrize("kind", ["narrow", "typical", "wide"])
def test_roundtrip_at_scale(benchmark, kind):
    rng = np.random.default_rng(7)
    vals = make_stream(kind, 1 << 16, rng)
    blob = huffman.encode(vals)
    out = benchmark.pedantic(lambda: huffman.decode(blob), rounds=3,
                             iterations=1)
    assert np.array_equal(out, vals)


#: interleaved LUT / trie rounds behind the speed-up assert: one round
#: can land on a scheduler stall, the median of the pairs does not
TIMING_ROUNDS = 7


def test_lut_beats_trie_at_chunk_scale(benchmark):
    rng = np.random.default_rng(7)
    vals = make_stream("typical", 1 << 16, rng)
    blob = huffman.encode(vals)

    def run():
        huffman.decode(blob)  # warm: the first call builds the tables
        lut, trie = [], []
        for _ in range(TIMING_ROUNDS):  # interleaved: drift hits both
            lut.append(_time(lambda: huffman.decode(blob), repeats=1))
            trie.append(_time(lambda: huffman.decode_trie(blob), repeats=1))
        return paired_ratio(trie, lut)

    speedup = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["lut_over_trie"] = speedup
    assert speedup["median"] >= 10.0, \
        f"LUT decoder only {speedup['median']:.1f}x over trie ({speedup})"


if __name__ == "__main__":
    print_banner(__doc__.splitlines()[0])
    t0 = time.perf_counter()
    table, rows = generate_table()
    wall = time.perf_counter() - t0
    print(table.render())

    at16 = [r for r in rows if r["n"] == 1 << 16 and "trie_s" in r]
    speedup = min(r["trie_s"] / r["dec_s"] for r in at16)
    print(f"worst-case LUT-vs-trie speedup at 2^16 elements: {speedup:.1f}x "
          f"(acceptance floor: 10x)")

    metrics = {
        "wall_seconds": seconds(wall),
        # headline gates: decode time at the 2^16 chunk scale, per regime
        **{f"decode_s_{r['kind']}_65536": seconds(r["dec_s"]) for r in at16},
        # the stage `auto` takes on noise, against the zlib it replaces
        **{f"{name}_s_wide_65536": seconds(r[f"{name}_s"])
           for r in at16 if r["kind"] == "wide"
           for name in ("fixed_enc", "fixed_dec", "zlib_enc", "zlib_dec")},
        "lut_over_trie_65536":
            {"values": [speedup], "unit": "x", "direction": "higher"},
    }
    emit_result("CD1", title=__doc__.splitlines()[0],
                params={"sizes": SIZES_FULL if FULL else SIZES_FAST,
                        "repeats": REPEATS},
                metrics=metrics,
                tables=[table],
                extra={"rows": [
                    {k: (round(v, 6) if isinstance(v, float) else v)
                     for k, v in r.items()} for r in rows]})
