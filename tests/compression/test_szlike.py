"""Unit tests for the SZ-like error-bounded compressor."""

import hashlib
import math
import struct
import zlib

import numpy as np
import pytest

from repro.circuits import Circuit, make_gate, supremacy_brickwork
from repro.compression import SZLikeCompressor, get_compressor
from repro.compression.interface import split_dtype
from repro.compression.metrics import max_component_error
from repro.compression.quantizer import quantize, zigzag
from repro.compression.szlike import _minimal_uint, _zlib_stage, blob_entropy
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
    @pytest.mark.parametrize("entropy", ["zlib", "auto"])
    def test_all_modes_roundtrip(self, entropy):
        x = smooth_signal(2048, seed=7)
        c = SZLikeCompressor(error_bound=1e-5, entropy=entropy)
        back = c.decompress(c.compress(x))
        assert max_component_error(x, back) <= 1e-5 * (1 + 1e-9)

    def test_invalid_entropy_rejected(self):
        with pytest.raises(ValueError):
            SZLikeCompressor(entropy="arith")

    def test_invalid_mode_rejected(self):
        # the bound is absolute: there is no mode to pick
        with pytest.raises(TypeError):
            SZLikeCompressor(mode="pointwise")
        with pytest.raises(ValueError, match="refused: 'mode'"):
            get_compressor("szlike", mode="rel")

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError):
            SZLikeCompressor(error_bound=0.0)

    @pytest.mark.parametrize("eb", [math.inf, math.nan, 0.0])
    def test_nonfinite_bound_rejected(self, eb):
        # an infinite step would quantize every amplitude to NaN
        with pytest.raises(ValueError, match="finite and positive"):
            get_compressor("szlike", error_bound=eb)


class TestBlobFormat:
    def test_magic_checked(self):
        c = SZLikeCompressor()
        with pytest.raises(ValueError):
            c.decompress(b"XXXXgarbage")

    def test_registry_construction(self):
        c = get_compressor("szlike", error_bound=1e-3)
        assert c.error_bound == 1e-3
        assert c.is_lossy

    def test_describe(self):
        assert "szlike" in SZLikeCompressor().describe()


class TestAutoEntropySelection:
    """`auto` picks between its two stages, fixed-length and zlib."""

    @pytest.mark.parametrize("seed,eb", [(0, 1e-6), (1, 1e-5), (2, 1e-4)])
    def test_auto_never_worse_than_zlib(self, seed, eb):
        # where auto takes the zlib stage its blob is the forced-zlib
        # compressor's on the same chunk. The fixed-length stage is chosen
        # without running zlib, so it carries the size contract of
        # test_entropy_contract.py instead: at most 5 % over.
        rng = np.random.default_rng(seed)
        for x in (smooth_signal(1 << 14, seed=seed),
                  (rng.standard_normal(1 << 14)
                   + 1j * rng.standard_normal(1 << 14)) / 128.0):
            blob = SZLikeCompressor(error_bound=eb, entropy="auto").compress(x)
            zl = SZLikeCompressor(error_bound=eb, entropy="zlib").compress(x)
            slack = 1.05 if blob_entropy(blob) == "fixed" else 1.0
            assert len(blob) <= slack * len(zl)

    def test_wide_alphabet_stays_with_zlib(self):
        # near-uniform noise under a tight bound explodes the delta
        # alphabet: `auto` does not deflate 32-bit noise, plain bit packing
        # is the smaller blob and skips the deflate.
        rng = np.random.default_rng(7)
        x = (rng.standard_normal(1 << 14) + 1j * rng.standard_normal(1 << 14))
        auto = SZLikeCompressor(error_bound=1e-9, entropy="auto")
        blob = auto.compress(x)
        assert blob_entropy(blob) == "fixed"
        zl = SZLikeCompressor(error_bound=1e-9, entropy="zlib").compress(x)
        assert blob_entropy(zl) == "zlib"
        assert len(blob) < len(zl)

    def test_structured_chunks_stay_off_the_fixed_stage(self):
        # every one of these fools a rule that looks at one stream's mean
        # (a ramp packed at 27x its zlib size, a real-valued state at
        # 1.45x); the leading-zero count over both streams sees them all
        rng = np.random.default_rng(4)
        noise = (rng.standard_normal(512) + 1j * rng.standard_normal(512)) / 32
        spike = np.zeros(512, dtype=complex)
        spike[::97] = 0.3 - 0.1j
        half = noise.copy()
        half[256:] = 0
        odd_zero = noise.copy()
        odd_zero[1::2] = 0
        cases = {
            "spike": spike,
            "constant": np.full(512, 0.25 + 0j),
            "ramp": np.linspace(0, 1, 512) * (1 + 1j) / 40,
            "noisy ramp": np.linspace(0, 1, 512) * (1 + 1j) / 40 + noise / 3e3,
            "offset + noise": 0.5 + noise / 300,
            "real-valued": noise.real.astype(complex),
            "dense head": half,
            "every other zero": odd_zero,
            "few levels": rng.choice([0.1, 0.2, -0.3, 0.05, 0.7], 512) * (1 + .5j),
        }
        for eb in (1e-4, 1e-6, 1e-8):
            auto = SZLikeCompressor(error_bound=eb, entropy="auto")
            zl = SZLikeCompressor(error_bound=eb, entropy="zlib")
            for label, x in cases.items():
                blob = auto.compress(x)
                # a constant chunk is stored as its one amplitude
                want = "uniform" if label == "constant" else "zlib"
                assert blob_entropy(blob) == want, (label, eb)
                assert len(blob) <= len(zl.compress(x)), (label, eb)
            assert blob_entropy(auto.compress(noise)) == "fixed", eb


class TestBlobEntropySniffer:
    def test_forced_modes_are_reported(self):
        x = smooth_signal(4096)
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

    def test_fixed_stage_is_reported_through_the_dtype_tag(self):
        rng = np.random.default_rng(2)
        x = (rng.standard_normal(512) + 1j * rng.standard_normal(512)) / 32
        comp = SZLikeCompressor(error_bound=1e-6)
        assert blob_entropy(comp.compress(x)) == "fixed"
        assert blob_entropy(comp.compress(x.astype(np.complex64))) == "fixed"

    def test_unknown_stage_id_is_none(self):
        blob = bytearray(SZLikeCompressor().compress(smooth_signal(256)))
        blob[5] = 9
        assert blob_entropy(bytes(blob)) is None


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
        res = MemQSim(chunk_qubits=8, compressor="szlike",
                      compressor_options={"error_bound": self.EB},
                      device=DeviceSpec(memory_bytes=16 * 1024),
                      telemetry=tel).run(circuit)
        counters = tel.metrics.snapshot()["counters"]
        assert counters.get("codec.entropy_choice.raw", 0) == 0
        # the dense state is bit-packed; only the first, still structured
        # chunks take the legacy stages
        store = res.store
        assert [blob_entropy(store.get_blob(k))
                for k in range(store.layout.num_chunks)] == \
            ["fixed"] * store.layout.num_chunks
        assert counters["codec.entropy_choice.fixed"] >= \
            store.layout.num_chunks
        assert counters["codec.entropy_choice.zlib"] > 0

    def test_bound_too_tight_for_doubles_still_escapes(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        comp = SZLikeCompressor(error_bound=1e-16)
        blob = comp.compress(x)
        assert blob_entropy(blob) == "raw"
        assert np.array_equal(comp.decompress(blob), x)


class TestLegacyStageBytes:
    """Forced ``zlib`` blobs are byte-identical to what the encoder emitted
    before the one-pass rewrite (the digests were recorded on the parent
    commit; CI's codec smoke step runs this class).

    The zlib blob is digested with its deflate stream inflated — header,
    width byte and the symbol stream are ours to keep stable, the deflate
    bytes belong to whichever zlib build the interpreter links.
    """

    PINNED = {
        ("complex128", "zlib"):
            "2951feba949b6d7748dbf9da071232ad94ad90c1773c44b548d9602ca310d81f",
        ("complex64", "zlib"):
            "2e59c7b84183803fa2ce1a3a7443a005d4c628da218353298ab866c58d6343de",
    }

    @staticmethod
    def pinned_array():
        # integer arithmetic only: no libm, no RNG stream to drift
        k = np.arange(4096, dtype=np.int64)
        hashed = (k * 2654435761 % 4093) - 2046         # noise-like
        wave = np.abs((k * 7) % 1024 - 512) - 256        # smooth triangle
        re = wave * 8 + hashed % 13
        im = np.roll(wave, 100) * 8 - hashed % 7
        return (re + 1j * im) * 2.0 ** -16

    @pytest.mark.parametrize("dtype,entropy", sorted(PINNED))
    def test_digest(self, dtype, entropy):
        x = self.pinned_array().astype(dtype)
        blob = SZLikeCompressor(error_bound=1e-5, entropy=entropy).compress(x)
        assert blob_entropy(blob) == entropy
        if entropy == "zlib":
            at = len(blob) - len(split_dtype(blob)[1]) + 23
            blob = blob[:at] + zlib.decompress(blob[at:])
        assert hashlib.sha256(blob).hexdigest() == self.PINNED[dtype, entropy]


def three_tier_probe(zz, level=1, max_alphabet=1 << 16, probe_samples=1 << 12):
    """The `auto` entropy probe as it was before the single-pass rewrite,
    less the Huffman encoder it ran (that stage is deleted): strided int64
    sample, then a second int64 ``np.unique``. Returns the zlib payload and
    whether the probe went on to run the Huffman encoder, which is where
    the old `auto` could pick Huffman."""
    narrow = _minimal_uint(zz)
    zpay = struct.pack("<B", narrow.dtype.itemsize) + \
        zlib.compress(narrow.tobytes(), level)
    zz64 = zz.astype(np.int64)
    stride = max(1, zz64.size // probe_samples)
    if np.unique(zz64[::stride]).size <= max_alphabet:
        symbols, freqs = np.unique(zz64, return_counts=True)
        if 2 <= symbols.size <= max_alphabet:
            p = freqs / zz64.size
            h_bits = float(-(p * np.log2(p)).sum())
            est = zz64.size * h_bits / 8 + 9 * symbols.size + 16
            if est <= len(zpay) * 1.05:
                return zpay, True
    return zpay, False


class TestSinglePassProbe:
    """The zlib stage emits the probe's zlib bytes, also where the probe
    would have tried Huffman."""

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
        tried = set()
        for label, x, eb in self.corpus():
            planes = np.concatenate([x.real, x.imag])
            zz = zigzag(np.diff(quantize(planes, eb).codes,
                                prepend=np.int64(0)))
            zpay, huffman_tried = three_tier_probe(zz)
            assert _zlib_stage(zz) == zpay, label
            tried.add(huffman_tried)
        assert tried == {False, True}  # the corpus exercises both outcomes
