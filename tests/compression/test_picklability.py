"""Every registered compressor must survive pickling.

Nothing in a run pickles a codec (codec lanes are threads calling the one
object), but a compressor is a value — a pure function of bytes and its
parameters — and stays one: a pickled clone makes the same blobs, so a
caller may ship a configured codec to another process. This audit keeps
the whole registry shippable.
"""

import pickle

import numpy as np
import pytest

from repro.compression import available_compressors, get_compressor

LOSSY_OPTS = {
    "szlike": {"error_bound": 1e-6},
}


def _chunk(n=128, seed=7):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return (v / np.linalg.norm(v)).astype(np.complex128)


@pytest.mark.parametrize("name", available_compressors())
def test_compressor_pickle_roundtrip(name):
    comp = get_compressor(name, **LOSSY_OPTS.get(name, {}))
    clone = pickle.loads(pickle.dumps(comp))
    data = _chunk()
    blob = comp.compress(data)
    # The clone must produce bit-identical blobs (a codec is its parameters)
    assert clone.compress(data) == blob
    np.testing.assert_array_equal(clone.decompress(blob),
                                  comp.decompress(blob))


@pytest.mark.parametrize("name", available_compressors())
def test_pickle_survives_prior_use(name):
    """Pickling after compress/decompress calls (runtime state) still works."""
    comp = get_compressor(name, **LOSSY_OPTS.get(name, {}))
    data = _chunk(seed=11)
    comp.decompress(comp.compress(data))
    clone = pickle.loads(pickle.dumps(comp))
    assert clone.compress(data) == comp.compress(data)
