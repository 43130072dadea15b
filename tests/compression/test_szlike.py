"""Unit tests for the SZ-like error-bounded compressor."""

import math
import struct
import zlib

import numpy as np
import pytest

from repro.circuits import Circuit, make_gate, supremacy_brickwork
from repro.compression import SZLikeCompressor, get_compressor, huffman
from repro.compression.metrics import max_component_error
from repro.compression.quantizer import quantize, zigzag
from repro.compression.szlike import _minimal_uint, blob_entropy
from repro.core import MemQSim
from repro.device import DeviceSpec
from repro.statevector.kernels import apply_circuit_gate
from repro.telemetry import Telemetry


def smooth_signal(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 8 * np.pi, n)
    return (np.sin(t) + 0.1 * rng.standard_normal(n)) * np.exp(1j * t / 3) / np.sqrt(n)


class TestRoundTrip:
    @pytest.mark.parametrize("eb", [1e-2, 1e-4, 1e-6, 1e-10])
    def test_abs_bound_respected(self, eb):
        x = smooth_signal(4096)
        c = SZLikeCompressor(error_bound=eb)
        back = c.decompress(c.compress(x))
        assert max_component_error(x, back) <= eb * (1 + 1e-9)

    def test_rel_mode_bound(self):
        x = smooth_signal(2048, seed=1) * 1e-3
        c = SZLikeCompressor(error_bound=1e-3, mode="rel")
        back = c.decompress(c.compress(x))
        planes = np.concatenate([x.real, x.imag])
        realized = 1e-3 * np.max(np.abs(planes))
        assert max_component_error(x, back) <= realized * (1 + 1e-9)

    def test_length_preserved(self):
        x = smooth_signal(777)
        c = SZLikeCompressor()
        assert c.decompress(c.compress(x)).shape == (777,)

    def test_empty_array(self):
        c = SZLikeCompressor()
        out = c.decompress(c.compress(np.empty(0, dtype=np.complex128)))
        assert out.shape == (0,)

    def test_single_element(self):
        x = np.array([0.3 - 0.4j])
        c = SZLikeCompressor(error_bound=1e-6)
        back = c.decompress(c.compress(x))
        assert max_component_error(x, back) <= 1e-6

    def test_all_zero_chunk(self):
        x = np.zeros(1024, dtype=np.complex128)
        c = SZLikeCompressor(error_bound=1e-6)
        blob = c.compress(x)
        assert len(blob) < 200  # must compress extremely well
        assert np.allclose(c.decompress(blob), 0.0, atol=1e-6)


class TestCompression:
    def test_smooth_data_compresses_well(self):
        x = smooth_signal(1 << 14)
        c = SZLikeCompressor(error_bound=1e-4)
        blob = c.compress(x)
        assert x.nbytes / len(blob) > 8

    def test_looser_bound_better_ratio(self):
        x = smooth_signal(1 << 13, seed=3)
        tight = len(SZLikeCompressor(error_bound=1e-8).compress(x))
        loose = len(SZLikeCompressor(error_bound=1e-3).compress(x))
        assert loose < tight

    def test_raw_fallback_on_tight_bound_random_data(self):
        rng = np.random.default_rng(5)
        x = (rng.standard_normal(512) + 1j * rng.standard_normal(512)) * 1e150
        c = SZLikeCompressor(error_bound=1e-300)
        # Quantization would overflow; raw fallback must be *exact*.
        back = c.decompress(c.compress(x))
        assert np.array_equal(back, x)

    def test_blob_never_catastrophically_larger(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        c = SZLikeCompressor(error_bound=1e-14)
        blob = c.compress(x)
        assert len(blob) <= x.nbytes * 1.1


class TestEntropyModes:
    @pytest.mark.parametrize("entropy", ["zlib", "huffman", "auto"])
    def test_all_modes_roundtrip(self, entropy):
        x = smooth_signal(2048, seed=7)
        c = SZLikeCompressor(error_bound=1e-5, entropy=entropy)
        back = c.decompress(c.compress(x))
        assert max_component_error(x, back) <= 1e-5 * (1 + 1e-9)

    def test_invalid_entropy_rejected(self):
        with pytest.raises(ValueError):
            SZLikeCompressor(entropy="arith")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SZLikeCompressor(mode="pointwise")

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError):
            SZLikeCompressor(error_bound=0.0)


class TestBlobFormat:
    def test_magic_checked(self):
        c = SZLikeCompressor()
        with pytest.raises(ValueError):
            c.decompress(b"XXXXgarbage")

    def test_registry_construction(self):
        c = get_compressor("szlike", error_bound=1e-3, mode="rel")
        assert c.error_bound == 1e-3
        assert c.mode == "rel"
        assert c.is_lossy

    def test_describe(self):
        assert "szlike" in SZLikeCompressor().describe()


class TestAutoEntropySelection:
    """The lifted-caps `auto` mode: Huffman at real chunk sizes, never worse."""

    def test_huffman_selected_at_chunk_scale(self):
        # 2^16 elements was beyond the old _HUFFMAN_MAX_ELEMENTS = 2^12 cap;
        # with the LUT decoder auto must now pick Huffman on smooth chunks
        x = smooth_signal(1 << 16)
        auto = SZLikeCompressor(error_bound=1e-5, entropy="auto")
        assert blob_entropy(auto.compress(x)) == "huffman"

    @pytest.mark.parametrize("seed,eb", [(0, 1e-6), (1, 1e-5), (2, 1e-4)])
    def test_auto_never_worse_than_zlib(self, seed, eb):
        # exact-size arbitration: whatever auto picks, the blob can only tie
        # or beat a forced-zlib compressor on the same chunk
        rng = np.random.default_rng(seed)
        for x in (smooth_signal(1 << 14, seed=seed),
                  (rng.standard_normal(1 << 14)
                   + 1j * rng.standard_normal(1 << 14)) / 128.0):
            auto = SZLikeCompressor(error_bound=eb, entropy="auto")
            zl = SZLikeCompressor(error_bound=eb, entropy="zlib")
            assert len(auto.compress(x)) <= len(zl.compress(x))

    def test_wide_alphabet_stays_with_zlib(self):
        # near-uniform noise under a tight bound explodes the delta alphabet
        # past the probe, so auto keeps the zlib (or raw-escape) path
        rng = np.random.default_rng(7)
        x = (rng.standard_normal(1 << 14) + 1j * rng.standard_normal(1 << 14))
        blob = SZLikeCompressor(error_bound=1e-9, entropy="auto").compress(x)
        assert blob_entropy(blob) in ("zlib", "raw")


class TestBlobEntropySniffer:
    def test_forced_modes_are_reported(self):
        x = smooth_signal(4096)
        assert blob_entropy(
            SZLikeCompressor(error_bound=1e-5, entropy="huffman").compress(x)
        ) == "huffman"
        assert blob_entropy(
            SZLikeCompressor(error_bound=1e-5, entropy="zlib").compress(x)
        ) == "zlib"

    def test_raw_escape_is_reported(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        blob = SZLikeCompressor(error_bound=1e-14).compress(x)
        assert blob_entropy(blob) == "raw"

    def test_non_szl1_blob_is_none(self):
        assert blob_entropy(b"XXXXnot a blob") is None
        assert blob_entropy(b"") is None

    def test_adaptive_wrapper_looked_through(self):
        from repro.compression import get_compressor as _get
        adaptive = _get("adaptive")
        blob = adaptive.compress(smooth_signal(4096))
        # may route to szlike or a lossless inner codec; the sniffer must
        # either see through the wrapper or return None, never raise
        assert blob_entropy(blob) in ("huffman", "zlib", "raw", None)


class TestTieLattice:
    """Chunks on exact half-steps of the ``2*eb`` lattice must stay lossy.

    A chunk decoded from this codec sits on the lattice; a gate whose matrix
    entries are multiples of 1/2 (sx, H (x) H) then puts its components on
    exact half-steps, where ``rint`` ties and the error is exactly ``eb`` —
    product rounding used to push that one ulp past the bound and the whole
    chunk fell through to the raw escape.
    """

    EB = 1e-6

    def check(self, x):
        comp = SZLikeCompressor(error_bound=self.EB)
        blob = comp.compress(x)
        assert blob_entropy(blob) != "raw"
        assert len(blob) < x.nbytes / 2
        # strict: the configured bound, no slack factor
        assert max_component_error(x, comp.decompress(blob)) <= self.EB

    def test_exact_half_lattice_values(self):
        k = np.random.default_rng(3).integers(-200000, 200000, size=(2, 1024))
        self.check((2 * k[0] + 1) * self.EB + 1j * ((2 * k[1] + 1) * self.EB))

    @pytest.mark.parametrize("gates", [[("sx", 0)], [("h", 0), ("h", 5)],
                                       [("sx", 2), ("sx", 7)]])
    def test_decompress_gate_compress_round_trip(self, gates):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        v /= np.linalg.norm(v)
        comp = SZLikeCompressor(error_bound=self.EB)
        on_lattice = comp.decompress(comp.compress(v))
        for name, qubit in gates:
            apply_circuit_gate(on_lattice, make_gate(name, (qubit,)))
        self.check(on_lattice)

    def test_recompressing_a_decoded_chunk_is_stable(self):
        comp = SZLikeCompressor(error_bound=self.EB)
        once = comp.decompress(comp.compress(smooth_signal(2048)))
        assert np.array_equal(comp.decompress(comp.compress(once)), once)

    def test_streamed_supremacy_never_escapes_to_raw(self):
        n = 12
        angles = np.random.default_rng(0).uniform(
            math.pi / 4, 3 * math.pi / 4, size=n)
        circuit = Circuit(n)
        for qubit, angle in enumerate(angles):
            circuit.ry(float(angle), qubit)
        circuit = circuit.compose(supremacy_brickwork(n, depth=6))
        tel = Telemetry()
        MemQSim(chunk_qubits=8, compressor="szlike",
                compressor_options={"error_bound": self.EB},
                device=DeviceSpec(memory_bytes=16 * 1024),
                telemetry=tel).run(circuit)
        counters = tel.metrics.snapshot()["counters"]
        assert counters.get("codec.entropy_choice.raw", 0) == 0
        assert counters["codec.entropy_choice.zlib"] > 0

    def test_bound_too_tight_for_doubles_still_escapes(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        comp = SZLikeCompressor(error_bound=1e-16)
        blob = comp.compress(x)
        assert blob_entropy(blob) == "raw"
        assert np.array_equal(comp.decompress(blob), x)


def three_tier_probe(zz, level=1, max_alphabet=1 << 16, probe_samples=1 << 12):
    """The `auto` entropy probe as it was before the single-pass rewrite:
    strided int64 sample, then a second int64 ``np.unique`` with inverse."""
    narrow = _minimal_uint(zz)
    zpay = struct.pack("<B", narrow.dtype.itemsize) + \
        zlib.compress(narrow.tobytes(), level)
    zz64 = zz.astype(np.int64)
    stride = max(1, zz64.size // probe_samples)
    if np.unique(zz64[::stride]).size <= max_alphabet:
        symbols, inverse, freqs = np.unique(
            zz64, return_inverse=True, return_counts=True)
        if 2 <= symbols.size <= max_alphabet:
            p = freqs / zz64.size
            h_bits = float(-(p * np.log2(p)).sum())
            est = zz64.size * h_bits / 8 + 9 * symbols.size + 16
            if est <= len(zpay) * 1.05:
                hpay = huffman.encode(zz64, alphabet=(symbols, inverse, freqs))
                if len(hpay) <= len(zpay):
                    return hpay, 1
    return zpay, 0


class TestSinglePassProbe:
    """The rewritten probe picks the same stage and emits the same bytes."""

    @staticmethod
    def corpus():
        rng = np.random.default_rng(0)
        noise = (rng.standard_normal(1 << 14)
                 + 1j * rng.standard_normal(1 << 14))
        yield "smooth-64k", smooth_signal(1 << 16), 1e-5
        for seed, eb in [(0, 1e-6), (1, 1e-5), (2, 1e-4)]:
            yield f"smooth-16k-{seed}", smooth_signal(1 << 14, seed=seed), eb
            yield f"noise-16k-{seed}", noise / 128.0, eb
        yield "wide-alphabet", noise, 1e-9
        yield "small-chunk", smooth_signal(1024), 1e-6
        yield "two-symbols", np.tile([1e-3, -1e-3], 2048).astype(complex), 1e-3
        yield "constant", np.full(4096, 0.25 + 0j), 1e-6

    def test_same_choice_and_bytes_as_three_tier_probe(self):
        picked = set()
        for label, x, eb in self.corpus():
            planes = np.concatenate([x.real, x.imag])
            zz = zigzag(np.diff(quantize(planes, eb).codes,
                                prepend=np.int64(0)))
            got = SZLikeCompressor(error_bound=eb)._entropy_encode(zz)
            assert got == three_tier_probe(zz), label
            picked.add(got[1])
        assert picked == {0, 1}  # the corpus exercises both outcomes
