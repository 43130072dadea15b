"""Experiment CD1 — entropy-stage throughput: fixed-length packing vs zlib.

The codec is the per-chunk hot path: every stage pass pays one decompress
and one compress per chunk, so entropy-stage throughput bounds how far the
pipeline can hide codec work behind kernels. szlike has two entropy
stages, and this bench measures both on the same minimal-width symbol
stream, across chunk sizes 2^10..2^20 and three alphabet regimes:

* fixed-length ``pack_fixed`` / ``unpack_fixed`` (the stage szlike's
  ``auto`` takes on noise, the ``wide`` regime), and
* zlib encode/decode (the stage it takes on everything else),

in effective MB/s of decoded int64 payload, with each stage's size.
"""

from __future__ import annotations

import time
import zlib

import numpy as np
import pytest

from common import FULL, emit_result, print_banner, seconds
from repro.analysis import Table
from repro.compression.bitstream import pack_fixed, unpack_fixed

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


if __name__ == "__main__":
    print_banner(__doc__.splitlines()[0])
    t0 = time.perf_counter()
    table, rows = generate_table()
    wall = time.perf_counter() - t0
    print(table.render())

    at16 = [r for r in rows if r["n"] == 1 << 16]
    metrics = {
        "wall_seconds": seconds(wall),
        # both stages at the 2^16 chunk scale, per regime
        **{f"{name}_s_{r['kind']}_65536": seconds(r[f"{name}_s"])
           for r in at16
           for name in ("fixed_enc", "fixed_dec", "zlib_enc", "zlib_dec")},
    }
    emit_result("CD1", title=__doc__.splitlines()[0],
                params={"sizes": SIZES_FULL if FULL else SIZES_FAST,
                        "repeats": REPEATS},
                metrics=metrics,
                tables=[table],
                extra={"rows": [
                    {k: (round(v, 6) if isinstance(v, float) else v)
                     for k, v in r.items()} for r in rows]})
