"""Seeded 64-bit PRNG with a fixed, documented recurrence.

Every randomized routine in the package draws from this generator so that
runs are reproducible bit-for-bit across platforms.  The update is the
splitmix-style sequence

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output = z xor (z >> 31)

Uniform doubles are output / 2^64; normal deviates come from Box-Muller on
two consecutive uniforms.  The batch draws are bit-identical to single draws.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _M1) & _MASK
        z = ((z ^ (z >> 27)) * _M2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform in [0, 1)."""
        return self.next_u64() / 2.0 ** 64

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform() draws at once: state k is state + k GAMMA, mixed in uint64."""
        z = np.arange(1, n + 1, dtype=np.uint64) * _GAMMA + np.uint64(self.state)
        self.state = (self.state + len(z) * _GAMMA) & _MASK
        z = (z ^ (z >> 30)) * _M1
        z = (z ^ (z >> 27)) * _M2
        return (z ^ (z >> 31)) / 2.0 ** 64

    def gauss(self) -> float:
        # Box-Muller; clamp u1 away from 0 so log is finite
        u1 = max(self.uniform(), 2.0 ** -64)
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def gausses(self, n: int) -> list:
        # libm log and cos per element as in gauss(); np.log differs in the last bit
        u = self.uniforms(2 * n)
        log = np.fromiter(map(math.log, np.maximum(u[0::2], 2.0 ** -64).tolist()), float, n)
        cos = np.fromiter(map(math.cos, (2.0 * math.pi * u[1::2]).tolist()), float, n)
        return (np.sqrt(-2.0 * log) * cos).tolist()
