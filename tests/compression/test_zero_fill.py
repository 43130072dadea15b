"""The interned zero blob decodes to zeros, so a fill is its decode.

A load of a chunk holding the store's interned zero blob fills the slot
with zeros instead of calling the codec. That is exact only while every
registered codec decodes ``compress(zeros)`` to bytewise zeros of the same
dtype and length; a codec that breaks it would make a fill differ from a
decode, so a new codec must pass this to land.
"""

import numpy as np
import pytest

from repro.compression import available_compressors, get_compressor
from repro.compression.interface import compressor_options

#: per codec, the option sets to check: its default, and for a lossy codec
#: the loosest and tightest bounds the benchmarks and tests use
BOUNDS = (None, 1e-6, 1e-4)


def codecs():
    for name in available_compressors():
        bounds = BOUNDS if get_compressor(name).is_lossy else (None,)
        for bound in bounds:
            yield pytest.param(name, bound, id=f"{name}-{bound}")


@pytest.mark.parametrize("name,bound", list(codecs()))
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_zero_blob_decodes_to_bytewise_zeros(name, bound, dtype):
    codec = get_compressor(name, **compressor_options(name, bound))
    for log_size in range(15):
        zeros = np.zeros(1 << log_size, dtype=dtype)
        back = codec.decompress(codec.compress(zeros))
        assert back.dtype == dtype and back.shape == zeros.shape, log_size
        assert not back.view(np.uint8).any(), log_size
