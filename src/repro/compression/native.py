"""The compiled frame codec: szlike's quantised frame in one C call a chunk.

``_szframe.c``, built with ``cc`` when szlike first needs it (never at
import), cached under a hash of source, :data:`FLAGS` and the platform,
loaded through ``ctypes``; where it cannot be, szlike runs its numpy
frame, which writes the same bytes (DESIGN.md, "A compiled frame codec").
"""

from __future__ import annotations

import hashlib
import logging
import os
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path
from typing import Iterator, List, Optional

import numpy as np

__all__ = ["FLAGS", "FrameCodec", "frame_codec", "library_name", "load"]

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_szframe.c")
#: part of the cache key; no -march=native (a cache may move between
#: hosts), no -ffast-math (it breaks the C file's exactness rules)
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
#: szl_encode's results
UNIFORM, RAW, FIXED, ZLIB = range(4)


def cache_dirs() -> Iterator[Path]:
    """``__pycache__`` (trusted as the package is), then a private one."""
    yield Path(__file__).parent / "__pycache__"
    user = Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    try:
        user.mkdir(mode=0o700, exist_ok=True)
        st = user.stat()
    except OSError:
        return
    if st.st_uid == os.getuid() and not st.st_mode & 0o077:
        yield user


def _compile(source: Path, target: str) -> None:
    subprocess.run(["cc", *FLAGS, "-o", target, str(source)], check=True,
                   stdin=subprocess.DEVNULL, capture_output=True, timeout=300)


def library_name() -> str:
    """The cached library's name: a hash of source, flags and platform."""
    key = hashlib.sha256(b"\0".join((
        SOURCE.read_bytes(), " ".join(FLAGS).encode(),
        sysconfig.get_platform().encode())))
    return f"_szframe-{key.hexdigest()[:16]}.so"


def load() -> "FrameCodec":
    """The library of the first cache directory that holds or can build one
    that loads (OSError if none does, SubprocessError if the compiler
    fails): an unwritable directory or a cached file that does not load
    passes on to the next. A build compiles to a temporary name and
    ``os.replace``s it into place."""
    name, failure = library_name(), OSError("no usable cache directory")
    for directory in cache_dirs():
        target = directory / name
        try:
            if not target.is_file():
                directory.mkdir(parents=True, exist_ok=True)
                fd, partial = tempfile.mkstemp(prefix=name, dir=directory)
                os.close(fd)
                try:
                    _compile(SOURCE, partial)
                    os.replace(partial, target)
                finally:
                    if os.path.exists(partial):
                        os.unlink(partial)
            return FrameCodec(target)
        except OSError as exc:
            failure = exc
    raise failure


class FrameCodec:
    """The library's two calls, arrays by address (checked by szlike)."""

    def __init__(self, path: Path):
        import ctypes

        from . import quantizer, szlike

        self.path, lib = path, ctypes.CDLL(str(path))
        lib.szl_policy(*map(ctypes.c_int64, (
            szlike._FIXED_MIN_DELTA_WIDTH, szlike._FIXED_PROBE,
            szlike._FIXED_MIN_DISTINCT, szlike._FIXED_MAX_SLACK)),
            ctypes.c_double(quantizer.MAX_SAFE_CODE))
        i64, f64, i32, ptr = (ctypes.c_int64, ctypes.c_double, ctypes.c_int,
                              ctypes.c_void_p)
        self._encode, self._decode = lib.szl_encode, lib.szl_decode
        self._encode.argtypes = [ptr, i64, i32, f64, f64, i32, ptr]
        self._encode.restype = i32
        self._decode.argtypes = [ctypes.c_char_p, i64, i64, i32, i32, i32,
                                 f64, ptr, i32]
        self._decode.restype = None
        self._char, self._addressof = ctypes.c_char, ctypes.addressof

    def _address(self, array: np.ndarray) -> int:
        try:  # ~0.5 us, against ~2 us for array.ctypes.data
            return self._addressof(self._char.from_buffer(array))
        except TypeError:  # read-only
            return array.ctypes.data

    def encode(self, data: np.ndarray, step_bound: float, eb: float,
               automatic: bool, work: np.ndarray):
        """szl_encode's frame and payload (a view of ``work``, 6n + 2)."""
        n = data.shape[0]
        stage = self._encode(self._address(data), n, data.dtype.itemsize == 8,
                             step_bound, eb, automatic, self._address(work))
        return stage, work[4 * n + 1:].view(np.uint8)[:int(work[0])]

    def decode(self, src: bytes, at: int, n: int, packed: bool, width: int,
               predicted: int, step_bound: float, out: np.ndarray) -> None:
        self._decode(src, at, n, packed, width, predicted, step_bound,
                     self._address(out), out.dtype.itemsize == 8)


_LOCK = threading.Lock()
_LOADED: List[Optional[FrameCodec]] = []


def frame_codec() -> Optional[FrameCodec]:
    """The process's codec, loaded on first call; ``None`` if it failed."""
    if not _LOADED:
        with _LOCK:
            if not _LOADED:
                try:
                    _LOADED.append(load())
                except (OSError, subprocess.SubprocessError) as exc:
                    log.warning("szlike runs its numpy frame: the compiled "
                                "frame codec is unavailable (%s)", exc)
                    _LOADED.append(None)
    return _LOADED[0]
