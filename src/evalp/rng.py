"""Seeded randomness for reproducible runs.

One ``Rng`` owns one 64-bit PRNG stream (PCG64). Normal deviates are
produced by a Box-Muller transform over the stream's uniforms, so every
draw is a pure function of the seed. Child streams are spawned through
the seed sequence, never by sharing a generator between owners.
"""

from __future__ import annotations

import numpy as np


class Rng:
    """Single-owner random stream."""

    def __init__(self, seed):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(int(seed))
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def uniform(self, shape=()) -> np.ndarray:
        """Uniform draws on [0, 1)."""
        return self._gen.random(shape)

    def normal(self, shape=()) -> np.ndarray:
        """Standard-normal draws via Box-Muller: from n/2 uniform pairs
        (u1, u2), r cos(2 pi u2) fills the first half and r sin(2 pi u2) the
        second, r = sqrt(-2 log(1 - u1)). Computed in place, so it holds the
        output plus two half-length arrays, r and the angle."""
        n = int(np.prod(shape)) if shape != () else 1
        pairs = (n + 1) // 2
        r = self._gen.random(pairs)
        angle = self._gen.random(pairs)
        # 1 - U keeps the log argument in (0, 1].
        np.subtract(1.0, r, out=r)
        np.log(r, out=r)
        np.multiply(r, -2.0, out=r)
        np.sqrt(r, out=r)
        np.multiply(angle, 2.0 * np.pi, out=angle)
        z = np.empty(2 * pairs)
        cos, sin = z[:pairs], z[pairs:]
        np.cos(angle, out=cos)
        np.sin(angle, out=sin)
        cos *= r
        sin *= r
        if shape == ():
            return z[0]
        return z[:n].reshape(shape)

    def integers(self, low, high, shape=()) -> np.ndarray:
        """Integer draws in [low, high)."""
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def spawn(self) -> "Rng":
        """Independent child stream; deterministic given spawn order."""
        return Rng(self._seq.spawn(1)[0])

    def seed_int(self) -> int:
        """Derived integer seed for APIs that take a plain seed."""
        return int(self._gen.integers(0, 2**63 - 1))
