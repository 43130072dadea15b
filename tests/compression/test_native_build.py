"""How the compiled frame codec is built, cached and loaded.

The library is built the first time szlike needs it, never at import; a
host where the build fails runs szlike's numpy frame, which writes the
same blobs, and a run says which one it ran in ``config_echo["codec_impl"]``.
Two first builds at once leave one whole library.
"""

import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.circuits import qft, vqe_ansatz
from repro.compression import native, szlike
from repro.compression.szlike import (NumpySZLike, SZLikeCompressor,
                                      blob_entropy)
from repro.core import MemQSim
from repro.device import DeviceSpec

#: whether this host builds the library: the tests that compile need it
BUILDS = native.frame_codec() is not None


def chunks():
    rng = np.random.default_rng(3)
    noise = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    smooth = np.exp(1j * np.linspace(0, 3, 512))
    return [(v / 16).astype(dtype) for v in (noise, smooth, np.ones(512))
            for dtype in (np.complex64, np.complex128)]


def lossy_run():
    return MemQSim(chunk_qubits=5, compressor="szlike", precision="c64",
                   device=DeviceSpec(memory_bytes=2048)).run(
        vqe_ansatz(8, layers=2, params=np.linspace(0.1, 1.6, 32)))


@pytest.fixture()
def unbuilt(monkeypatch, tmp_path):
    """A process that has not loaded the library, with an empty cache
    directory; yields the list of compiler calls."""
    calls = []
    compile_ = native._compile
    monkeypatch.setattr(native, "_LOADED", [])
    monkeypatch.setattr(native, "cache_dirs", lambda: iter([tmp_path]))
    monkeypatch.setattr(native, "_compile",
                        lambda *args: calls.append(args) or compile_(*args))
    return calls


def test_a_failed_build_runs_the_numpy_frame(monkeypatch, tmp_path):
    """The blobs and the state of a run whose build failed are those the
    process's own szlike wrote (compiled, where this host can build)."""
    want = [SZLikeCompressor().compress(c) for c in chunks()]
    digest = lossy_run().state_digest()

    def broken(source, target):
        raise subprocess.CalledProcessError(1, ["cc"])

    monkeypatch.setattr(native, "_LOADED", [])
    monkeypatch.setattr(native, "cache_dirs", lambda: iter([tmp_path]))
    monkeypatch.setattr(native, "_compile", broken)
    assert native.frame_codec() is None
    assert [SZLikeCompressor().compress(c) for c in chunks()] == want
    result = lossy_run()
    assert result.config_echo["codec_impl"] == "numpy"
    assert result.state_digest() == digest


@pytest.mark.skipif(not BUILDS, reason="the library does not build here")
def test_a_run_names_the_compiled_codec():
    assert lossy_run().config_echo["codec_impl"] == "native"


def test_a_lossless_run_never_builds(unbuilt):
    result = MemQSim(chunk_qubits=4, compressor="zlib").run(qft(6))
    assert result.config_echo["codec_impl"] == "numpy"
    assert unbuilt == [] and native._LOADED == []


def test_importing_builds_nothing():
    code = ("import repro, repro.core, repro.compression.native as n; "
            "print(n._LOADED)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.mark.skipif(not BUILDS, reason="the library does not build here")
def test_the_cache_is_keyed_by_source_flags_and_platform(monkeypatch, unbuilt,
                                                         tmp_path):
    path = native.load().path
    assert path.parent == tmp_path and len(unbuilt) == 1
    assert native.load().path == path and len(unbuilt) == 1  # cached
    assert list(tmp_path.iterdir()) == [path]
    monkeypatch.setattr(native, "FLAGS", native.FLAGS + ("-DREBUILT",))
    other = native.load().path
    assert other != path and len(unbuilt) == 2
    monkeypatch.setattr(native.sysconfig, "get_platform", lambda: "elsewhere")
    third = native.load().path
    assert third not in (path, other) and len(unbuilt) == 3
    assert sorted(tmp_path.iterdir()) == sorted([path, other, third])


@pytest.mark.skipif(not BUILDS, reason="the library does not build here")
def test_a_cached_library_that_does_not_load_passes_to_the_next(
        monkeypatch, unbuilt, tmp_path):
    """A leftover or foreign ``.so`` under the library's name in the first
    cache directory: the next directory builds one that loads."""
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    (first / native.library_name()).write_bytes(b"not a shared library")
    monkeypatch.setattr(native, "cache_dirs", lambda: iter([first, second]))
    assert native.frame_codec().path == second / native.library_name()
    assert len(unbuilt) == 1


@pytest.mark.skipif(not BUILDS, reason="the library does not build here")
def test_the_stage_policy_is_read_from_szlike(monkeypatch, unbuilt):
    """szlike.py owns `auto`'s thresholds: a library loaded after they
    change picks its stages by the new ones, as the numpy frame does."""
    assert "fixed" in {blob_entropy(NumpySZLike().compress(chunk))
                       for chunk in chunks()}
    monkeypatch.setattr(szlike, "_FIXED_MIN_DISTINCT", szlike._FIXED_PROBE + 1)
    codec = native.load()

    class Loaded(SZLikeCompressor):
        _frame_codec = staticmethod(lambda: codec)

    blobs = [Loaded().compress(chunk) for chunk in chunks()]
    assert blobs == [NumpySZLike().compress(chunk) for chunk in chunks()]
    assert "fixed" not in {blob_entropy(blob) for blob in blobs}


@pytest.mark.skipif(not BUILDS, reason="the library does not build here")
def test_two_first_builds_at_once_leave_one_library(monkeypatch, unbuilt,
                                                     tmp_path):
    """Both threads pass the cache lookup before either has written, and
    compile at the same time; each renames its own temporary file into
    place, so one whole library is left, and it loads."""
    both = threading.Barrier(2, timeout=60)
    compile_ = native._compile

    def together(source, target):
        both.wait()
        compile_(source, target)

    monkeypatch.setattr(native, "_compile", together)
    paths = []
    threads = [threading.Thread(
        target=lambda: paths.append(native.load().path)) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert len(paths) == 2 and paths[0] == paths[1]
    assert list(tmp_path.iterdir()) == [paths[0]]
    codec = native.FrameCodec(paths[0])

    class Built(SZLikeCompressor):
        _frame_codec = staticmethod(lambda: codec)

    for chunk in chunks():
        assert Built().compress(chunk) == SZLikeCompressor().compress(chunk)
