"""Rng tests: the in-place Box-Muller transform against the textbook
formula, bit for bit and in traced memory."""

import tracemalloc

import numpy as np
import pytest

from evalp.rng import Rng


def _box_muller(rng, shape):
    """Reference: both halves computed out of place and joined."""
    n = int(np.prod(shape)) if shape != () else 1
    pairs = (n + 1) // 2
    u1 = 1.0 - rng._gen.random(pairs)
    u2 = rng._gen.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:n]
    return z[0] if shape == () else z.reshape(shape)


@pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 5), (128000, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_normal_equals_the_out_of_place_formula_bitwise(shape, seed):
    a, b = Rng(seed), Rng(seed)
    got, want = a.normal(shape), _box_muller(b, shape)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))
    # The same uniforms were consumed.
    assert a.uniform() == b.uniform()


def test_normal_traces_less_memory_than_the_out_of_place_formula():
    peaks = []
    for draw in (lambda: Rng(1).normal((128000, 2)), lambda: _box_muller(Rng(1), (128000, 2))):
        tracemalloc.start()
        try:
            draw()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # The output plus r and the angle: 2 MiB + 2 x 1 MiB, against 6.8 MiB.
    assert peaks[0] < 4.5 * 2**20 < peaks[1]
