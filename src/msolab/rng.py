"""Deterministic random streams for the fuzz and acceptance suites.

The generator is xoshiro256** (Blackman/Vigna), seeded through splitmix64,
both implemented here in plain integer arithmetic so that any other
implementation of the same algorithms reproduces the exact streams.

    splitmix64 step:   x += 0x9E3779B97F4A7C15
                       z = x; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
                       z = (z ^ (z >> 27)) * 0x94D049BB133111EB
                       output z ^ (z >> 31)
    xoshiro256** step: result = rotl(s1 * 5, 7) * 9
                       t = s1 << 17
                       s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3
                       s2 ^= t;  s3 = rotl(s3, 45)

All quantities are 64-bit unsigned with wraparound. Uniform doubles take the
top 53 bits of one output word.
"""

from __future__ import annotations

import cmath

_MASK = (1 << 64) - 1


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, (z ^ (z >> 31)) & _MASK


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class Xoshiro256StarStar:
    """xoshiro256** stream over 64-bit words."""

    def __init__(self, seed: int):
        state = seed & _MASK
        s = []
        for _ in range(4):
            state, word = _splitmix64(state)
            s.append(word)
        self._s = s
        self.seed = seed

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * (1.0 / (1 << 53))
        return lo + (hi - lo) * u

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (inclusive); rejection-free modulo is
        fine at these tiny ranges."""
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def complex_box(self) -> complex:
        """Uniform on the square [-1, 1] x [-1, 1]."""
        return complex(self.uniform(-1.0, 1.0), self.uniform(-1.0, 1.0))

    def complex_disk(self, radius: float) -> complex:
        """Uniform w.r.t. area on the disk of the given radius."""
        r = radius * self.uniform() ** 0.5
        phi = self.uniform(0.0, 2.0 * cmath.pi)
        return r * cmath.exp(1j * phi)

    def spawn(self, index: int) -> "Xoshiro256StarStar":
        """Independent child stream for case number `index`."""
        _, word = _splitmix64((self.seed ^ (index + 1) * 0xA0761D6478BD642F) & _MASK)
        return Xoshiro256StarStar(word)
