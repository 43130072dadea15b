"""Unit + property tests for the block-float and sparse codecs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression import (
    BlockFloatCompressor,
    SparseCompressor,
    get_compressor,
    max_component_error,
)
from repro.compression.bitstream import pack_codes, unpack_fields


def rand_complex(n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale


class TestUnpackFields:
    def test_inverse_of_pack(self):
        rng = np.random.default_rng(1)
        lengths = rng.integers(0, 30, size=500).astype(np.uint8)
        codes = np.array(
            [rng.integers(0, 1 << int(l)) if l else 0 for l in lengths],
            dtype=np.uint64,
        )
        packed, _ = pack_codes(codes[lengths > 0], lengths[lengths > 0])
        # unpack with the *full* lengths array (zero-width fields allowed)
        full_packed, _ = pack_codes(codes, lengths)
        back = unpack_fields(full_packed, lengths)
        assert np.array_equal(back, codes)

    def test_empty(self):
        assert unpack_fields(b"", np.empty(0, dtype=np.uint8)).shape == (0,)

    def test_all_zero_widths(self):
        out = unpack_fields(b"", np.zeros(5, dtype=np.uint8))
        assert np.array_equal(out, np.zeros(5, dtype=np.uint64))


class TestBlockFloatAccuracy:
    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
    def test_bound_respected(self, tol):
        x = rand_complex(3000, seed=2)
        c = BlockFloatCompressor(tolerance=tol)
        back = c.decompress(c.compress(x))
        assert max_component_error(x, back) <= tol

    def test_bound_across_magnitudes(self):
        rng = np.random.default_rng(3)
        x = rand_complex(4096, seed=3) * np.exp(rng.uniform(-30, 5, 4096))
        c = BlockFloatCompressor(tolerance=1e-7)
        back = c.decompress(c.compress(x))
        assert max_component_error(x, back) <= 1e-7

    def test_zero_chunk(self):
        x = np.zeros(256, dtype=np.complex128)
        c = BlockFloatCompressor(tolerance=1e-6)
        blob = c.compress(x)
        assert np.array_equal(c.decompress(blob), x)
        assert len(blob) < 200

    def test_empty(self):
        c = BlockFloatCompressor()
        assert c.decompress(c.compress(np.empty(0, dtype=complex))).shape == (0,)

    def test_non_multiple_of_block(self):
        x = rand_complex(100, seed=4)  # 200 floats, not a multiple of 64
        c = BlockFloatCompressor(tolerance=1e-6)
        back = c.decompress(c.compress(x))
        assert back.shape == (100,)
        assert max_component_error(x, back) <= 1e-6

    def test_looser_tolerance_smaller_blob(self):
        x = rand_complex(4096, seed=5)
        tight = len(BlockFloatCompressor(tolerance=1e-10).compress(x))
        loose = len(BlockFloatCompressor(tolerance=1e-3).compress(x))
        assert loose < tight

    @given(
        data=hnp.arrays(
            np.float64, st.integers(min_value=0, max_value=300),
            elements=st.floats(min_value=-1e3, max_value=1e3,
                               allow_nan=False, width=64),
        ),
        tol_exp=st.integers(min_value=-9, max_value=-2),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_bound(self, data, tol_exp):
        tol = 10.0**tol_exp
        x = data.astype(np.complex128)
        c = BlockFloatCompressor(tolerance=tol)
        back = c.decompress(c.compress(x))
        assert back.shape == x.shape
        assert max_component_error(x, back) <= tol


class TestBlockFloatRate:
    def test_guaranteed_footprint(self):
        # Fixed-rate mode: incompressible data still lands near rate bits.
        x = rand_complex(1 << 12, seed=6)
        c = BlockFloatCompressor(rate=12)
        blob = c.compress(x)
        # 2n values * 12 bits / 8 + headers; allow 40% slack for headers.
        ceiling = (2 * x.shape[0] * 12 / 8) * 1.4 + 64
        assert len(blob) <= ceiling

    def test_rate_error_is_block_relative(self):
        x = rand_complex(2048, seed=7)
        c = BlockFloatCompressor(rate=16)
        back = c.decompress(c.compress(x))
        # 16-bit mantissas: relative error ~ 2^-14 of the block max.
        planes = np.concatenate([x.real, x.imag])
        worst = np.abs(planes).max() * 2.0**-12
        assert max_component_error(x, back) <= worst

    def test_higher_rate_lower_error(self):
        x = rand_complex(2048, seed=8)
        errs = []
        for rate in (8, 16, 32):
            c = BlockFloatCompressor(rate=rate)
            errs.append(max_component_error(x, c.decompress(c.compress(x))))
        assert errs[0] > errs[1] > errs[2]

    def test_mode_property(self):
        assert BlockFloatCompressor(rate=8).mode == "rate"
        assert BlockFloatCompressor().mode == "accuracy"

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockFloatCompressor(rate=-1)
        with pytest.raises(ValueError):
            BlockFloatCompressor(rate=60)
        with pytest.raises(ValueError):
            BlockFloatCompressor(tolerance=0.0)

    def test_registry_error_bound_alias(self):
        c = get_compressor("blockfloat", error_bound=1e-4)
        assert c.tolerance == 1e-4


class TestSparse:
    def test_sparse_roundtrip_exact(self):
        x = np.zeros(1024, dtype=np.complex128)
        x[[3, 77, 500]] = [1 + 2j, -0.5j, 0.25]
        c = SparseCompressor()
        assert np.array_equal(c.decompress(c.compress(x)), x)

    def test_dense_fallback_exact(self):
        x = rand_complex(512, seed=9)
        c = SparseCompressor()
        assert np.array_equal(c.decompress(c.compress(x)), x)

    def test_sparse_beats_zlib_on_one_hot(self):
        x = np.zeros(1 << 12, dtype=np.complex128)
        x[123] = 1.0
        sparse_size = len(SparseCompressor().compress(x))
        assert sparse_size < 100

    def test_threshold_controls_mode(self):
        x = np.zeros(100, dtype=np.complex128)
        x[:30] = 1.0  # 30% density
        blob_lo = SparseCompressor(density_threshold=0.1).compress(x)
        blob_hi = SparseCompressor(density_threshold=0.5).compress(x)
        assert blob_lo[4] == 1  # dense tag
        assert blob_hi[4] == 0  # sparse tag

    def test_empty(self):
        c = SparseCompressor()
        assert c.decompress(c.compress(np.empty(0, dtype=complex))).shape == (0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseCompressor(density_threshold=1.5)

    def test_lossless_flag(self):
        assert not SparseCompressor().is_lossy

    @given(data=hnp.arrays(
        np.complex128, st.integers(min_value=0, max_value=400),
        elements=st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                    allow_infinity=False),
    ))
    @settings(max_examples=40, deadline=None)
    def test_property_exact(self, data):
        c = SparseCompressor()
        assert np.array_equal(c.decompress(c.compress(data)), data)


class TestInSimulator:
    @pytest.mark.parametrize("codec,opts", [
        ("blockfloat", {"tolerance": 1e-9}),
        ("sparse", {}),
    ])
    def test_end_to_end(self, codec, opts, dense):
        from repro.circuits import random_circuit
        from repro.core import MemQSim, MemQSimConfig
        from repro.device import DeviceSpec

        circ = random_circuit(8, 40, seed=50)
        cfg = MemQSimConfig(chunk_qubits=4, compressor=codec,
                            compressor_options=opts,
                            device=DeviceSpec(memory_bytes=1 << 13))
        res = MemQSim(cfg).run(circ)
        ref = dense.run(circ).data
        # Two-sided: blockfloat does not preserve the norm, so the overlap
        # lands on either side of 1 by a few 1e-9 depending on how many
        # times the plan recompresses the state (1 + 1.9e-9 with five
        # stages, 1 - 1.8e-9 with three). A one-sided bound at 1e-9 only
        # ever passed by landing above 1.
        assert abs(1 - res.fidelity_vs(ref)) <= 1e-8
