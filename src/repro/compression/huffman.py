"""Canonical Huffman coding over integer symbol streams.

The SZ-style pipeline entropy-codes quantization codes. This module builds a
canonical Huffman code from symbol frequencies, encodes with the vectorized
bit packer, and decodes with a table-driven, batch-vectorized decoder:

* **Encode** is fully vectorized: per-symbol (code, length) lookup via
  ``np.take`` + :func:`repro.compression.bitstream.pack_codes`.
* **Decode** exploits the canonical property that codewords, left-justified
  to a fixed window width, tile the window space contiguously in (length,
  symbol) order. A direct lookup table indexed by the top
  ``min(max_len, 16)`` window bits resolves short codes in one ``np.take``;
  longer codes resolve by ``np.searchsorted`` against the left-justified
  codeword values (length-limited codes fit the 64-bit window since
  ``_MAX_CODE_LEN = 56``). The bit cursor advances without a per-bit Python
  loop: phase 1 computes consumed-bits for *every* bit offset in vectorized
  blocks, phase 2 turns that into the chain of codeword start positions via
  repeated jump-table squaring (anchor positions every ``2^h`` symbols) plus
  a parallel wavefront across segments, and phase 3 gathers the symbol at
  each start position.
* The original per-bit **trie walk** is kept as :func:`decode_trie` — the
  fallback for tiny/pathological streams and the oracle the equivalence
  tests compare against.

The serialized form is unchanged: symbol table (sorted unique symbols as
int64) + canonical code lengths (uint8 per symbol) + bit count + packed
bits, so the decoder rebuilds the exact code without transmitting the tree
shape, and blobs written before the fast path existed decode byte-for-byte
identically.
"""

from __future__ import annotations

import heapq
import struct
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..memory.bufferpool import scratch_pool
from .bitstream import pack_codes, unpack_bits

__all__ = [
    "HuffmanCode",
    "encode",
    "encode_with_code",
    "decode",
    "decode_lut",
    "decode_trie",
]

_MAX_CODE_LEN = 56  # fits in the uint64 packer (and the 64-bit decode window)

#: direct-LUT window width cap: 2^16 entries is the largest table worth
#: rebuilding per blob; longer codes escape to the searchsorted path.
_LUT_MAX_BITS = 16

#: below this many symbols the per-call numpy setup outweighs the win and
#: the trie walk is used instead.
_LUT_MIN_ELEMENTS = 256

#: streams this long would overflow the int32 jump table — trie fallback
#: (pathological: >2^31 bits is far beyond any chunk the store produces).
_MAX_STREAM_BITS = (1 << 31) - 64

#: bit positions processed per vectorized consumed-bits pass
_WINDOW_BLOCK = 1 << 18

#: target number of scalar anchor hops in the chain-advance phase
_ANCHOR_TARGET = 4096


class HuffmanCode:
    """A canonical Huffman code over a finite integer alphabet."""

    def __init__(self, symbols: np.ndarray, lengths: np.ndarray):
        """Build canonical codewords from (symbol, length) pairs.

        ``symbols`` must be sorted ascending and unique; ``lengths`` are the
        Huffman code lengths. Canonical assignment orders by (length, symbol).
        """
        self.symbols = np.asarray(symbols, dtype=np.int64)
        self.lengths = np.asarray(lengths, dtype=np.uint8)
        if self.symbols.shape != self.lengths.shape:
            raise ValueError("symbols and lengths must align")
        # Kraft check: a valid code exhausts at most the unit interval.
        # (Checked first — the vectorized assignment below would wrap on an
        # over-full code.)
        kraft = float(np.sum(2.0 ** (-self.lengths.astype(np.float64))))
        if kraft > 1.0 + 1e-9:
            raise ValueError(f"invalid code: Kraft sum {kraft} > 1")
        order = np.lexsort((self.symbols, self.lengths))
        lens_c = self.lengths[order].astype(np.uint64)
        # Vectorized canonical assignment. In (length, symbol) order the
        # sequential rule  code_i = (code_{i-1} + 1) << (len_i - len_{i-1})
        # is, left-justified to 64 bits, a running sum of half-open interval
        # widths:  lj_i = sum_{j<i} 2^(64 - len_j).
        lj = np.zeros(len(lens_c), dtype=np.uint64)
        if len(lens_c) > 1:
            steps = np.uint64(1) << (np.uint64(64) - lens_c)
            lj[1:] = np.cumsum(steps[:-1])
        codes = np.empty(len(lens_c), dtype=np.uint64)
        codes[order] = lj >> (np.uint64(64) - lens_c)
        self.codes = codes
        self._canon_order = order
        self._decode_tables: Optional[tuple] = None

    @classmethod
    def from_frequencies(cls, symbols: np.ndarray, freqs: np.ndarray) -> "HuffmanCode":
        """Standard Huffman construction via a heap of (weight, id) pairs."""
        symbols = np.asarray(symbols, dtype=np.int64)
        freqs = np.asarray(freqs, dtype=np.int64)
        k = len(symbols)
        if k == 0:
            raise ValueError("empty alphabet")
        if k == 1:
            return cls(symbols, np.array([1], dtype=np.uint8))
        heap: List[Tuple[int, int]] = [(int(f), i) for i, f in enumerate(freqs)]
        heapq.heapify(heap)
        parent: Dict[int, int] = {}
        next_id = k
        while len(heap) > 1:
            fa, a = heapq.heappop(heap)
            fb, b = heapq.heappop(heap)
            parent[a] = next_id
            parent[b] = next_id
            heapq.heappush(heap, (fa + fb, next_id))
            next_id += 1
        lengths = np.zeros(k, dtype=np.uint8)
        depth_cache: Dict[int, int] = {heap[0][1]: 0}

        def depth(node: int) -> int:
            d = depth_cache.get(node)
            if d is None:
                d = depth(parent[node]) + 1
                depth_cache[node] = d
            return d

        for i in range(k):
            lengths[i] = max(1, depth(i))
        if int(lengths.max()) > _MAX_CODE_LEN:
            raise ValueError("code length exceeds packer limit")
        return cls(symbols, lengths)

    # -- (de)serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        k = len(self.symbols)
        return (
            struct.pack("<I", k)
            + self.symbols.tobytes()
            + self.lengths.tobytes()
        )

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> Tuple["HuffmanCode", int]:
        (k,) = struct.unpack_from("<I", data, offset)
        offset += 4
        symbols = np.frombuffer(data, dtype=np.int64, count=k, offset=offset).copy()
        offset += 8 * k
        lengths = np.frombuffer(data, dtype=np.uint8, count=k, offset=offset).copy()
        offset += k
        return cls(symbols, lengths), offset

    # -- decode tables ---------------------------------------------------------

    def _node_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Flattened binary trie: children[node, bit] -> node or ~leaf_idx."""
        # Node 0 is the root; internal nodes get positive ids; leaves are
        # encoded as negative (-1 - symbol_index).
        children = [[0, 0]]
        for idx in range(len(self.symbols)):
            code = int(self.codes[idx])
            length = int(self.lengths[idx])
            node = 0
            for pos in range(length - 1, -1, -1):
                bit = (code >> pos) & 1
                if pos == 0:
                    children[node][bit] = -1 - idx
                else:
                    nxt = children[node][bit]
                    if nxt <= 0:
                        children.append([0, 0])
                        nxt = len(children) - 1
                        children[node][bit] = nxt
                    node = nxt
        arr = np.asarray(children, dtype=np.int64)
        return arr[:, 0], arr[:, 1]

    def _lut_tables(self) -> tuple:
        """Canonical decode tables for the vectorized fast path (cached).

        Returns ``(wbits, lut_sym, lut_len, lj64, lens_c, syms_c)`` where
        arrays subscripted ``_c`` are in canonical (length, symbol) order.
        Codewords left-justified to 64 bits (``lj64``) are strictly
        increasing, and those with length <= ``wbits`` tile a contiguous
        prefix of the ``2^wbits`` window space — so the LUT is one
        ``np.repeat`` and everything past the tiled prefix is an escape
        slot resolved by binary search on ``lj64``.
        """
        # An idempotent lazy fill: codec lanes that race here each build
        # the same tables and one assignment wins — no lock needed.
        if self._decode_tables is None:
            order = self._canon_order
            lens_c = self.lengths[order]
            syms_c = self.symbols[order]
            codes_c = self.codes[order]
            max_len = int(lens_c[-1])
            wbits = min(max_len, _LUT_MAX_BITS)
            m = int(np.count_nonzero(lens_c <= wbits))
            reps = np.left_shift(
                np.int64(1), wbits - lens_c[:m].astype(np.int64))
            filled = int(reps.sum())
            lut_sym = np.full(1 << wbits, -1, dtype=np.int64)
            lut_len = np.zeros(1 << wbits, dtype=np.uint8)
            lut_sym[:filled] = np.repeat(np.arange(m, dtype=np.int64), reps)
            lut_len[:filled] = np.repeat(lens_c[:m], reps)
            lj64 = codes_c << (np.uint64(64) - lens_c.astype(np.uint64))
            self._decode_tables = (wbits, lut_sym, lut_len, lj64,
                                   lens_c, syms_c)
        return self._decode_tables


# -- encoding -------------------------------------------------------------------


def encode(values: np.ndarray, alphabet: Optional[tuple] = None) -> bytes:
    """Huffman-encode an int64 symbol array; self-describing blob.

    ``alphabet``, if given, is the precomputed ``(symbols, inverse, freqs)``
    triple exactly as returned by ``np.unique(values, return_inverse=True,
    return_counts=True)`` — callers that already paid for the alphabet scan
    (entropy-mode selection) pass it through so the stream is not sorted
    twice. The emitted bytes are identical either way.
    """
    values = np.asarray(values, dtype=np.int64)
    n = values.shape[0]
    if n == 0:
        return struct.pack("<Q", 0)
    if alphabet is None:
        symbols, inverse, freqs = np.unique(
            values, return_inverse=True, return_counts=True)
    else:
        symbols, inverse, freqs = alphabet
    code = HuffmanCode.from_frequencies(symbols, freqs)
    return _frame(code, code.codes[inverse], code.lengths[inverse], n)


def encode_with_code(values: np.ndarray, code: HuffmanCode) -> bytes:
    """Encode with an explicit (already-built) code — same blob framing.

    Every value must appear in ``code.symbols``. Used by tests to exercise
    decoders on hand-built codes (max-length, skewed) that
    :meth:`HuffmanCode.from_frequencies` would not produce from counts.
    """
    values = np.asarray(values, dtype=np.int64)
    n = values.shape[0]
    if n == 0:
        return struct.pack("<Q", 0)
    idx = np.searchsorted(code.symbols, values)
    if (idx >= len(code.symbols)).any() or \
            not np.array_equal(code.symbols[idx], values):
        raise ValueError("value outside the code's alphabet")
    return _frame(code, code.codes[idx], code.lengths[idx], n)


def _frame(code: HuffmanCode, codes: np.ndarray, lengths: np.ndarray,
           n: int) -> bytes:
    packed, total_bits = pack_codes(codes, lengths)
    return (
        struct.pack("<Q", n)
        + code.to_bytes()
        + struct.pack("<Q", total_bits)
        + packed
    )


# -- decoding -------------------------------------------------------------------


#: decoded-code LRU keyed by the serialized code block. Every stage pass
#: re-decodes the same chunk blobs, so the canonical code (and its cached
#: decode tables) is typically a repeat — skip rebuilding it per decode.
#: Codec lane threads share it: every access holds the lock (a lookup's
#: ``move_to_end`` would otherwise race another thread's eviction).
_CODE_CACHE: "OrderedDict[bytes, HuffmanCode]" = OrderedDict()
_CODE_CACHE_MAX = 64
_CODE_CACHE_LOCK = threading.Lock()


def _parse(blob: bytes) -> Tuple[int, Optional[HuffmanCode], int, bytes]:
    (n,) = struct.unpack_from("<Q", blob, 0)
    if n == 0:
        return 0, None, 0, b""
    (k,) = struct.unpack_from("<I", blob, 8)
    end = 12 + 9 * k  # code block: k (4) + int64 symbols + uint8 lengths
    key = blob[8:end]
    with _CODE_CACHE_LOCK:
        code = _CODE_CACHE.get(key)
        if code is not None:
            _CODE_CACHE.move_to_end(key)
    if code is None:
        code, off = HuffmanCode.from_bytes(blob, 8)
        if off != end:
            raise ValueError("malformed Huffman code block")
        with _CODE_CACHE_LOCK:
            if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
                _CODE_CACHE.popitem(last=False)
            _CODE_CACHE[key] = code
    (total_bits,) = struct.unpack_from("<Q", blob, end)
    return n, code, total_bits, blob[end + 8:]


def decode(blob: bytes) -> np.ndarray:
    """Inverse of :func:`encode` (table-driven; trie for tiny streams)."""
    n, code, total_bits, data = _parse(blob)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n < _LUT_MIN_ELEMENTS or total_bits >= _MAX_STREAM_BITS:
        return _decode_trie(code, data, total_bits, n)
    return _decode_lut(code, data, total_bits, n)


def decode_trie(blob: bytes) -> np.ndarray:
    """Per-bit trie-walk decoder — the oracle/fallback path."""
    n, code, total_bits, data = _parse(blob)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    return _decode_trie(code, data, total_bits, n)


def decode_lut(blob: bytes) -> np.ndarray:
    """Vectorized decoder, forced (tests pit it against the trie oracle)."""
    n, code, total_bits, data = _parse(blob)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    return _decode_lut(code, data, total_bits, n)


def _decode_trie(code: HuffmanCode, data: bytes, total_bits: int,
                 n: int) -> np.ndarray:
    bits = unpack_bits(data, total_bits)
    zero_child, one_child = code._node_table()
    out = np.empty(n, dtype=np.int64)
    symbols = code.symbols
    node = 0
    k = 0
    for bit in bits:
        node = int(one_child[node]) if bit else int(zero_child[node])
        if node < 0:
            out[k] = symbols[-1 - node]
            k += 1
            if k == n:
                break
            node = 0
    if k != n:
        raise ValueError(f"truncated Huffman stream: decoded {k} of {n}")
    return out


def _fill_windows(w: np.ndarray, padded: np.ndarray, nbytes: int) -> None:
    """``w[b]`` = the next ``w.itemsize`` stream bytes from byte ``b``, MSB
    first. A window anchored at bit position ``p`` is then one gather plus
    shift on ``w[p >> 3]``; the top ``8*(itemsize-1) + 1`` bits past the
    ``p & 7`` phase are stream bits. ``padded`` must extend ``itemsize``
    bytes past byte ``nbytes - 1``.
    """
    w[:] = padded[:nbytes]
    for j in range(1, w.itemsize):
        w <<= w.dtype.type(8)
        w |= padded[j:j + nbytes]


def _decode_lut(code: HuffmanCode, data: bytes, total_bits: int,
                n: int) -> np.ndarray:
    wbits, lut_sym, lut_len, lj64, lens_c, syms_c = code._lut_tables()
    max_len = int(lens_c[-1])
    avail = min(int(total_bits), len(data) * 8)
    nwin = ((avail - 1) >> 3) + 1  # byte positions any window can anchor at
    padded = np.frombuffer(data + b"\x00" * 16, dtype=np.uint8)
    pool = scratch_pool()
    # Two window lanes. Fast lane (codes fit the LUT): uint32 windows —
    # 32 - 7 - wbits >= 0 spare bits, every window resolves in the LUT, no
    # escapes anywhere. Slow lane (max_len > wbits): uint64 windows with
    # searchsorted escapes against the left-justified codeword values.
    fast = max_len <= wbits
    wdtype, width = (np.uint32, 32) if fast else (np.uint64, 64)
    mask = wdtype((1 << wbits) - 1)
    # The LUT index at bit position p is bits r..r+wbits-1 of the window of
    # its byte, r = p & 7: right-shift by (width - wbits - r), then mask off
    # the r pre-position bits. Both shift tables cycle with r.
    idx_shift = wdtype(width - wbits) - np.arange(8, dtype=wdtype)
    lj_shift = np.arange(8, dtype=np.uint64)  # left-justify (slow lane)
    ish = np.tile(idx_shift, _WINDOW_BLOCK // 8)
    with pool.borrow(nwin, wdtype) as w, \
            pool.borrow(avail + _MAX_CODE_LEN + 1, np.int64) as jump:
        _fill_windows(w, padded, nwin)
        # Phase 1: consumed-bits at every bit offset -> jump table. The
        # tail past `avail` absorbs at `avail` so truncated streams park
        # there instead of running off the table. (int64 jump entries: every
        # np.take below runs mode="clip", which skips per-element bounds
        # checks and is markedly faster on intp-sized indices; values are
        # in-bounds by construction, so clipping never actually triggers.)
        for start in range(0, avail, _WINDOW_BLOCK):
            stop = min(start + _WINDOW_BLOCK, avail)
            b0, b1 = start >> 3, ((stop - 1) >> 3) + 1
            win = np.repeat(w[b0:b1], 8)[:stop - start]
            np.right_shift(win, ish[:stop - start], out=win)
            np.bitwise_and(win, mask, out=win)
            cons = lut_len[win]
            if not fast:
                esc = cons == 0
                if esc.any():
                    wide = np.repeat(w[b0:b1], 8)[:stop - start][esc]
                    r = np.tile(lj_shift, b1 - b0)[:stop - start][esc]
                    ci = np.searchsorted(lj64, wide << r, side="right") - 1
                    cons[esc] = lens_c[ci]
            np.add(np.arange(start, stop, dtype=np.int64), cons,
                   out=jump[start:stop], casting="unsafe")
        jump[avail:] = avail

        # Phase 2: chain of codeword start positions. Square the jump table
        # h times (one hop -> 2^h hops), walk ~n/2^h scalar anchors, then
        # fill each 2^h-symbol segment with a parallel wavefront.
        seg = 1
        while n > _ANCHOR_TARGET * seg:
            seg <<= 1
        m = -(-n // seg)
        anchors = np.empty(m, dtype=np.int64)
        jview = jump[:avail + _MAX_CODE_LEN + 1]
        if seg > 1:
            with pool.borrow(len(jview), np.int64) as ja, \
                    pool.borrow(len(jview), np.int64) as jb:
                np.take(jview, jview, out=ja, mode="clip")
                hops = 2
                while hops < seg:
                    np.take(ja, ja, out=jb, mode="clip")
                    ja, jb = jb, ja
                    hops <<= 1
                p = 0
                for i in range(m):
                    anchors[i] = p
                    p = int(ja[p])
        else:
            p = 0
            for i in range(m):
                anchors[i] = p
                p = int(jview[p])
        with pool.borrow(m * seg, np.int64) as chain:
            wave = chain.reshape(m, seg)
            cur = anchors
            for t in range(seg):
                wave[:, t] = cur
                if t + 1 < seg:
                    cur = np.take(jview, cur, mode="clip")
            positions = chain[:n]
            if int(positions[-1]) >= avail:
                raise ValueError(
                    f"truncated Huffman stream: ran past bit {avail} "
                    f"decoding {n} symbols")

            # Phase 3: the symbol at each start position.
            win = np.take(w, positions >> 3, mode="clip")
            r = positions & 7
            idx = (win >> np.take(idx_shift, r, mode="clip")) & mask
            ci = np.take(lut_sym, idx.astype(np.int64), mode="clip")
            if not fast:
                esc = ci < 0
                if esc.any():
                    wf = win[esc] << np.take(lj_shift, r[esc])
                    ci[esc] = np.searchsorted(lj64, wf, side="right") - 1
            end = int(positions[-1]) + int(lens_c[ci[-1]])
            if end != total_bits or end > avail:
                raise ValueError(
                    f"corrupt Huffman stream: {n} symbols consumed {end} "
                    f"of {total_bits} bits")
            return syms_c[ci]
