"""Portable seeded pseudo-random numbers.

SplitMix64 (Steele, Lea, Flood 2014): a 64-bit counter-based generator with a
single multiply-xorshift finalizer.  It is tiny, passes BigCrush, and --
important here -- produces bit-identical streams on every platform, so seeded
CLI artifacts are reproducible byte for byte.
"""

import math

_MASK = 0xFFFFFFFFFFFFFFFF


class SplitMix64:
    """Deterministic 64-bit PRNG with a uniform/gaussian convenience layer."""

    def __init__(self, seed):
        """`seed` is an integer in [0, 2^64); one outside is refused, not wrapped."""
        if not 0 <= seed <= _MASK:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {seed}")
        self._state = int(seed)
        self._gauss_cache = None

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def random(self):
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.random()

    def gauss(self):
        """Standard normal deviate via Box-Muller."""
        if self._gauss_cache is not None:
            z = self._gauss_cache
            self._gauss_cache = None
            return z
        # Avoid log(0): the first factor is in (0, 1].
        u1 = 1.0 - self.random()
        u2 = self.random()
        r = math.sqrt(-2.0 * math.log(u1))
        self._gauss_cache = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def gauss_vector(self, dim):
        return [self.gauss() for _ in range(dim)]
