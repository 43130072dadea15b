"""Unit tests for the lossless backends and the codec registry."""

import numpy as np
import pytest

from repro.compression import interface
from repro.compression import (
    Bz2Compressor,
    LzmaCompressor,
    NullCompressor,
    ZlibCompressor,
    available_compressors,
    compressor_options,
    get_compressor,
    register_compressor,
)
from repro.core import MemQSimConfig


def rand_complex(n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale


ALL_LOSSLESS = [ZlibCompressor, LzmaCompressor, Bz2Compressor, NullCompressor]


class TestLossless:
    @pytest.mark.parametrize("cls", ALL_LOSSLESS)
    def test_exact_roundtrip(self, cls):
        x = rand_complex(1000, seed=1)
        c = cls()
        assert np.array_equal(c.decompress(c.compress(x)), x)

    @pytest.mark.parametrize("cls", ALL_LOSSLESS)
    def test_not_lossy(self, cls):
        c = cls()
        assert not c.is_lossy
        assert c.error_bound == 0.0

    def test_structured_data_compresses(self):
        x = np.full(4096, 0.5 + 0.5j)
        assert len(ZlibCompressor().compress(x)) < x.nbytes / 50

    def test_null_size_is_raw_plus_header(self):
        x = rand_complex(64, seed=2)
        blob = NullCompressor().compress(x)
        assert len(blob) == x.nbytes + 12

    def test_magic_checked(self):
        with pytest.raises(ValueError):
            ZlibCompressor().decompress(b"BOGUS" * 4)

    def test_empty_roundtrip(self):
        x = np.empty(0, dtype=np.complex128)
        assert ZlibCompressor().decompress(ZlibCompressor().compress(x)).shape == (0,)


class TestRegistry:
    def test_known_names(self):
        names = available_compressors()
        for want in ("szlike", "zlib", "lzma", "bz2", "null"):
            assert want in names

    def test_factory_kwargs(self):
        # a misspelt or foreign option is refused, never dropped
        with pytest.raises(ValueError, match="takes no options"):
            get_compressor("zlib", levle=9)
        with pytest.raises(ValueError, match="refused: 'levle'"):
            MemQSimConfig(compressor="zlib", compressor_options={"levle": 9})

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_compressor("zstd")

    def test_custom_registration(self, monkeypatch):
        class Dummy(NullCompressor):
            name = "dummy-test"

        # a private registry copy, so the test name leaks into no later test
        monkeypatch.setattr(interface, "_REGISTRY", dict(interface._REGISTRY))
        register_compressor("dummy-test", lambda: Dummy())
        assert get_compressor("dummy-test").name == "dummy-test"


class TestCompressorOptions:
    """The one rule for which codecs take ``error_bound``."""

    def test_lossy_codec_takes_the_bound(self):
        assert compressor_options("szlike", 1e-6) == {"error_bound": 1e-6}

    @pytest.mark.parametrize("name", ["zlib", "lzma", "bz2", "null"])
    def test_lossless_codec_takes_none(self, name):
        assert compressor_options(name, 1e-6) == {}

    def test_no_bound_keeps_the_codec_default(self):
        assert compressor_options("szlike") == {}

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="zstd"):
            compressor_options("zstd", 1e-6)

    #: each codec's documented option set, and nothing else
    DOCUMENTED = {"szlike": {"error_bound"}, "zlib": set(), "lzma": set(),
                  "bz2": set(), "null": set()}

    def test_every_codec_is_documented(self):
        assert set(available_compressors()) == set(self.DOCUMENTED)

    @pytest.mark.parametrize("name", sorted(DOCUMENTED))
    def test_codec_takes_exactly_its_documented_options(self, name):
        options = compressor_options(name, 1e-6)
        assert set(options) == self.DOCUMENTED[name]
        get_compressor(name, **options)
        MemQSimConfig(compressor=name, compressor_options=options)
        for foreign in ("error_bound", "level", "preset", "mode", "entropy",
                        "zlib_level"):
            if foreign in options:
                continue
            bad = {**options, foreign: 1}
            with pytest.raises(ValueError, match=f"refused: {foreign!r}"):
                get_compressor(name, **bad)
            with pytest.raises(ValueError, match=f"refused: {foreign!r}"):
                MemQSimConfig(compressor=name, compressor_options=bad)

    @pytest.mark.parametrize("name", ["szlike", "zlib"])
    @pytest.mark.parametrize("bound", [float("inf"), float("nan"), 0.0,
                                       -1e-6, "abc", True])
    def test_bad_bound(self, name, bound):
        with pytest.raises(ValueError, match="error_bound"):
            compressor_options(name, bound)
