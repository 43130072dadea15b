"""Compressor plugin interface and registry.

MEMQSim treats compression as a pluggable module (the paper's "adaptable to
accommodate various compression algorithms"). A compressor turns a 1-D
complex amplitude array into a self-describing byte blob and back:

* :meth:`Compressor.compress` — array -> bytes
* :meth:`Compressor.decompress` — bytes -> array (length restored from
  blob), decoded into a caller's array when it fits (:func:`decode_target`)

Lossy compressors must respect their advertised error bound: every element
of the round-tripped array differs from the original by at most
:attr:`Compressor.error_bound` in each of the real and imaginary parts.

Blobs are dtype-carrying: a complex128 chunk encodes exactly as it always
has (byte-identical to the historical format), while a complex64 chunk's
blob is prefixed with a 5-byte ``DTP1`` dtype tag so that
:meth:`Compressor.decompress` restores the array in the dtype it was
compressed from. Codecs apply the tag with :func:`tag_dtype` (or prefix
:func:`dtype_tag` themselves) and read it with :func:`frame_dtype`, which
returns where the codec's own frame starts instead of copying it out.

A chunk that repeats one amplitude bit for bit is stored as that
amplitude by the codecs the simulator writes (zlib's ``LSU1`` frame,
szlike's uniform SZL1 frame); :func:`uniform_amplitude` is the one test
that decides it.

The registry maps names to factory callables so configurations can name
compressors in plain strings (``"szlike"``, ``"zlib"``, ...).
"""

from __future__ import annotations

import abc
import functools
import inspect
import math
import numbers
import sys
import zlib
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "Compressor",
    "register_compressor",
    "get_compressor",
    "available_compressors",
    "compressor_options",
    "DTYPE_MAGIC",
    "HEADER_BYTES",
    "tag_dtype",
    "dtype_tag",
    "frame_dtype",
    "split_dtype",
    "coerce_amplitudes",
    "decode_target",
    "inflate_exact",
    "uniform_amplitude",
    "fill_uniform",
]

#: prefix marking a non-complex128 blob: ``DTP1`` + one dtype-tag byte,
#: then the codec's own (untouched) frame. complex128 blobs carry no
#: prefix, keeping the historical format byte-identical.
DTYPE_MAGIC = b"DTP1"
#: the leading bytes of a blob that name its frame and stage: a dtype tag
#: (5), a magic (4), then szlike's flag and entropy id (2); the sniffers
#: (``szlike.blob_entropy``, ``lossless.blob_frame``) read no further
HEADER_BYTES = 11

_COMPLEX128 = np.dtype(np.complex128)
_DTYPE_TAGS: Dict[np.dtype, int] = {np.dtype(np.complex64): 0x01}
_TAG_TO_DTYPE: Dict[int, np.dtype] = {v: k for k, v in _DTYPE_TAGS.items()}
#: the prefix per amplitude dtype (none for complex128)
_PREFIX: Dict[np.dtype, bytes] = {
    _COMPLEX128: b"",
    **{dt: DTYPE_MAGIC + bytes((tag,)) for dt, tag in _DTYPE_TAGS.items()}}


def coerce_amplitudes(data: np.ndarray) -> np.ndarray:
    """Normalize codec input to a contiguous complex64/complex128 array.

    Anything that is not already one of the two supported amplitude
    dtypes upcasts to complex128 (the historical behaviour).
    """
    data = np.ascontiguousarray(data)
    if data.dtype not in _PREFIX:
        data = np.ascontiguousarray(data, dtype=np.complex128)
    return data


def decode_target(out: Optional[np.ndarray], dtype,
                  n: int) -> np.ndarray:
    """The array a decoder writes ``n`` amplitudes of ``dtype`` into.

    ``out`` when it is a writeable, C-contiguous 1-D array of exactly that
    dtype and length; otherwise (``None`` included) a fresh array, and
    ``out`` is left as it was. Every codec decodes through this one rule,
    so ``decompress(blob)`` is ``decompress(blob, out=<new array>)``.
    """
    # ``carray``: C-contiguous, aligned and writeable
    if (out is not None and out.dtype == dtype and out.ndim == 1
            and out.shape[0] == n and out.flags.carray):
        return out
    return np.empty(n, dtype=dtype)


def inflate_exact(stream, size: int) -> bytes:
    """Inflate a zlib ``stream`` that must hold exactly ``size`` bytes.

    Raises ``ValueError`` unless the stream inflates to ``size`` bytes,
    ends there, and nothing follows it: a stream that inflates longer or
    shorter than its frame says, or carries trailing bytes, is damaged,
    and is never cut or padded to fit. Inflating stops one byte past
    ``size``: a stream that would inflate to far more costs no more, and
    a full output buffer never stops inflate short of the stream's end.
    """
    if not 0 <= size < sys.maxsize:
        raise ValueError(f"no deflate stream holds {size} bytes")
    inflater = zlib.decompressobj()
    raw = inflater.decompress(stream, size + 1)
    if (len(raw) != size or not inflater.eof or inflater.unconsumed_tail
            or inflater.unused_data):
        raise ValueError(
            f"deflate stream does not hold exactly {size} bytes")
    return raw


#: Before its full compare, :func:`uniform_amplitude` reads the amplitude
#: at index ``(n - 1) // d`` for each ``d`` here, the last and then the
#: middle one, against the first, and a chunk that differs there is
#: rejected after a few scalar reads. Of the 470 chunks of the codec-bytes
#: corpus (tests/compression/test_codec_bytes.py) that zlib's probe finds
#: a repeat in and that are not uniform, the last amplitude rejects 442
#: and the middle one 15; 13 reach the full compare. A zero or constant
#: tail, a local qubit's zero half or a phase ramp differs from the head
#: there. Hot, zlib's reject (on the probe's word view) costs ~0.3 us and
#: szlike's (on amplitude bytes) ~0.7-1.1 us; a uniform chunk ~1.2 us at
#: 1 KiB and ~2.0 us at 16 KiB, against ~15 us for a 16 KiB deflate
#: (2-vCPU x86_64, CPython 3.11).
_UNIFORM_PRECHECK = (1, 2)


def uniform_amplitude(data: np.ndarray, words=None) -> Optional[bytes]:
    """The bytes of the one amplitude ``data`` repeats, or ``None``.

    ``data`` is a C-contiguous complex64 / complex128 array; ``words``,
    when given, is its buffer cast to eight-byte words (``memoryview``
    format ``Q``), the view zlib's probe has already built, and the
    pre-check reads it. Without it the pre-check compares amplitude
    bytes: inside a run, building a word view only for the test cost
    szlike ~1 us a call more (hierarchy_spill, 313 calls an operation).
    The test is bitwise: ``+0.0`` and ``-0.0`` never merge, nor do two
    NaNs with different payloads, so a chunk stored as its one amplitude
    decodes to the very bytes it was. An empty chunk repeats nothing.
    """
    n = data.shape[0]
    if n == 0:
        return None
    if words is None:
        first = data[:1].tobytes()
        for d in _UNIFORM_PRECHECK:
            at = (n - 1) // d
            if data[at:at + 1].tobytes() != first:
                return None
    else:
        last = len(words) // n - 1  # the last word of an amplitude
        for d in _UNIFORM_PRECHECK:
            at = (n - 1) // d * (last + 1)
            if words[at] != words[0] or words[at + last] != words[last]:
                return None
        first = data[:1].tobytes()
    return first if data.tobytes() == first * n else None


def fill_uniform(amplitude, dtype: np.dtype, n: int,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Decode a uniform frame: ``n`` copies of ``amplitude`` (the bytes
    :func:`uniform_amplitude` returned), with one ``fill`` into ``out``
    when it fits (:func:`decode_target`). Raises ``ValueError`` unless
    ``n`` is at least 1 and ``amplitude`` is one amplitude of ``dtype``,
    and, when ``out`` is given, unless it holds ``n`` amplitudes: the count
    is the frame's only length, so a damaged one fails before anything is
    allocated.
    """
    if n == 0 or len(amplitude) != dtype.itemsize:
        raise ValueError(
            f"uniform frame of {n} amplitudes holds {len(amplitude)} bytes, "
            f"not one {dtype.itemsize}-byte amplitude")
    if out is not None and out.shape[0] != n:
        raise ValueError(f"uniform frame of {n} amplitudes decoded into "
                         f"{out.shape[0]}")
    out = decode_target(out, dtype, n)
    out.fill(np.frombuffer(amplitude, dtype=dtype)[0])
    return out


def dtype_tag(dtype) -> bytes:
    """The prefix a blob of ``dtype`` amplitudes carries (none for
    complex128)."""
    dt = np.dtype(dtype)
    try:
        return _PREFIX[dt]
    except KeyError:
        raise ValueError(f"no blob dtype tag for {dt}") from None


def tag_dtype(blob: bytes, dtype) -> bytes:
    """Prefix ``blob`` with a dtype tag unless it is complex128."""
    tag = dtype_tag(dtype)
    return tag + blob if tag else blob


def frame_dtype(blob: bytes) -> Tuple[np.dtype, int]:
    """Read a dtype tag: returns ``(dtype, offset of the codec's frame)``.

    Untagged blobs are complex128 by definition.
    """
    if blob[:4] == DTYPE_MAGIC:
        try:
            return _TAG_TO_DTYPE[blob[4]], 5
        except KeyError:
            raise ValueError(f"unknown blob dtype tag {blob[4]:#x}") from None
    return _COMPLEX128, 0


def split_dtype(blob: bytes) -> Tuple[np.dtype, bytes]:
    """Strip a dtype tag: returns ``(dtype, inner_blob)``."""
    dt, at = frame_dtype(blob)
    return dt, blob[at:] if at else blob


class Compressor(abc.ABC):
    """Base class for amplitude-chunk compressors."""

    #: canonical registry name, set by subclasses
    name: str = "abstract"

    @property
    @abc.abstractmethod
    def is_lossy(self) -> bool:
        """Whether round-trips may perturb values."""

    @property
    def error_bound(self) -> float:
        """Max per-component absolute error of a round-trip (0 if lossless)."""
        return 0.0

    @property
    def codec_impl(self) -> str:
        """``"native"`` where a compiled frame codec runs, else ``"numpy"``."""
        return "numpy"

    @abc.abstractmethod
    def compress(self, data: np.ndarray) -> bytes:
        """Compress a 1-D complex64/complex128 array into a blob.

        The blob is self-describing, including the input dtype (see
        :func:`tag_dtype`): decompressing restores the original dtype.
        """

    @abc.abstractmethod
    def decompress(self, blob: bytes,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
        """Recover the array (possibly within :attr:`error_bound`).

        The array is decoded into ``out`` and ``out`` is returned when it
        is a writeable, C-contiguous 1-D array of the blob's dtype and
        length; any other ``out`` (wrong dtype, wrong length, strided,
        read-only) is never written, and a fresh array is returned instead
        (:func:`decode_target`), so callers test ``result is out``. If
        decoding raises, the contents of ``out`` are unspecified.
        """

    def describe(self) -> str:
        kind = "lossy" if self.is_lossy else "lossless"
        eb = f", eb={self.error_bound:g}" if self.is_lossy else ""
        return f"{self.name} ({kind}{eb})"

    def __repr__(self) -> str:
        return f"<Compressor {self.describe()}>"


_REGISTRY: Dict[str, Callable[..., Compressor]] = {}


def register_compressor(name: str, factory: Callable[..., Compressor]) -> None:
    """Register a compressor factory under ``name`` (overwrites silently).

    The factory's keyword parameters are the codec's whole option set."""
    _REGISTRY[name] = factory


# inspect.signature of a class takes tens of microseconds, and a config
# builds its codec every time it is built; the registry's factories are few
@functools.lru_cache(maxsize=None)
def _signature(factory: Callable[..., Compressor]) -> inspect.Signature:
    return inspect.signature(factory)


def get_compressor(name: str, **options) -> Compressor:
    """Instantiate a registered compressor by name with its options.

    The options are the factory's keyword parameters: ``error_bound`` for
    a lossy codec, none for a lossless one (:func:`compressor_options`).
    Any other key is refused with ``ValueError``, never dropped."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown compressor {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    signature = _signature(factory)
    try:
        signature.bind(**options)
    except TypeError:
        takes = tuple(signature.parameters)
        foreign = sorted(set(options) - set(takes))
        raise ValueError(
            f"compressor {name!r} takes {', '.join(takes) or 'no options'}; "
            f"refused: {', '.join(map(repr, foreign))}") from None
    return factory(**options)


def available_compressors() -> List[str]:
    return sorted(_REGISTRY)


def compressor_options(name: str,
                       error_bound: Optional[float] = None) -> Dict[str, float]:
    """The ``compressor_options`` that give codec ``name`` this bound.

    The one place that decides which codecs take ``error_bound``: a lossy
    one does, a lossless one does not (its options stay empty). ``None``
    leaves the codec's own default. Raises ``ValueError`` for a name the
    registry does not know, and for a bound that is not a finite real
    number > 0 — whichever codec it was given for.
    """
    try:
        lossy = get_compressor(name).is_lossy
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    if error_bound is None:
        return {}
    if (isinstance(error_bound, bool)
            or not isinstance(error_bound, numbers.Real)
            or not 0 < error_bound < math.inf):
        raise ValueError(
            f"error_bound must be a finite number > 0, got {error_bound!r}")
    return {"error_bound": float(error_bound)} if lossy else {}
