"""Seeded 64-bit PRNG with a fixed, documented recurrence.

Every randomized routine in the package draws from this generator so that
runs are reproducible bit-for-bit across platforms.  The update is the
splitmix-style sequence

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output = z xor (z >> 31)

Uniform doubles are output / 2^64, in [0, 1]: outputs from 2^64 - 2^10 up
round to 1.0.  A normal deviate inverts the normal CDF at one uniform u,
by Wichura's AS241 (PPND16; Appl. Statist. 37, 477 (1988)), with the
coefficients and evaluation order of statistics.NormalDist.inv_cdf:

    p = max(u, 2^-64), q = p - 1/2
    |q| <= 0.425:  z = q A(r) / B(r),  r = 0.180625 - q^2
    otherwise:     r = sqrt(-log max(min(p, 1 - p), 2^-64)),
                   z = +-C(r - 1.6) / D(r - 1.6) for r <= 5,
                       +-E(r - 5) / F(r - 5) beyond, with the sign of q

with A..F degree-7 polynomials in Horner form.  The central 85% uses only
+, * and /, which IEEE rounds alike everywhere, so the batch draws
vectorise it; only the tails call libm's log, one element at a time as the
single draw does, because numpy's log may differ in the last bit.  The
batch draws are bit-identical to single draws.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

# AS241 coefficients, highest degree first
_A = (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
      4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
      1.3314166789178437745e+2, 3.3871328727963666080e+0)
_B = (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
      2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
      4.2313330701600911252e+1, 1.0)
_C = (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
      1.2704582524523683826e+0, 3.6478483247632045810e+0, 5.7694972214606914055e+0,
      4.6303378461565452959e+0, 1.4234371107496835773e+0)
_D = (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
      1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
      2.0531916266377588219e+0, 1.0)
_E = (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
      2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
      5.4637849111641143699e+0, 6.6579046435011037772e+0)
_F = (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
      7.8686913114561329059e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
      5.9983220655588793769e-1, 1.0)


def _horner(coeffs, x):
    """The polynomial at x, a float or an array, rounded as AS241 rounds it;
    unrolled, because a loop adds about a fifth to a scalar draw."""
    c0, c1, c2, c3, c4, c5, c6, c7 = coeffs
    return ((((((c0 * x + c1) * x + c2) * x + c3) * x + c4) * x + c5) * x + c6) * x + c7


def _central(q):
    """The deviate at q = p - 1/2, |q| <= 0.425."""
    r = 0.180625 - q * q
    return _horner(_A, r) * q / _horner(_B, r)


def _tail(r):
    """The deviate's magnitude at r = sqrt(-log min(p, 1 - p)), r <= 5."""
    r = r - 1.6
    return _horner(_C, r) / _horner(_D, r)


def _far_tail(r):
    """The deviate's magnitude at r = sqrt(-log min(p, 1 - p)), r > 5."""
    r = r - 5.0
    return _horner(_E, r) / _horner(_F, r)


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
        """Uniform in [0, 1]: 1.0 for outputs from 2^64 - 2^10 up."""
        return self.next_u64() / 2.0 ** 64

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform() draws at once: state k is state + k GAMMA, mixed in uint64."""
        z = np.arange(1, n + 1, dtype=np.uint64) * _GAMMA + np.uint64(self.state)
        self.state = (self.state + len(z) * _GAMMA) & _MASK
        z = (z ^ (z >> 30)) * _M1
        z = (z ^ (z >> 27)) * _M2
        return (z ^ (z >> 31)) / 2.0 ** 64

    def gauss(self) -> float:
        """A standard normal deviate from one uniform, by AS241."""
        p = max(self.uniform(), 2.0 ** -64)
        q = p - 0.5
        if abs(q) <= 0.425:
            return _central(q)
        r = math.sqrt(-math.log(max(min(p, 1.0 - p), 2.0 ** -64)))
        x = _tail(r) if r <= 5.0 else _far_tail(r)
        return -x if q < 0.0 else x

    def gausses(self, n: int) -> list:
        """n gauss() draws at once: the central region in numpy, libm log per tail draw."""
        p = np.maximum(self.uniforms(n), 2.0 ** -64)
        q = p - 0.5
        z = np.empty(n)
        mid = np.abs(q) <= 0.425
        z[mid] = _central(q[mid])
        tail = ~mid
        p, q = p[tail], q[tail]
        s = np.maximum(np.minimum(p, 1.0 - p), 2.0 ** -64).tolist()
        r = np.sqrt(-np.fromiter(map(math.log, s), float, len(s)))
        far = r > 5.0
        x = _tail(r)
        x[far] = _far_tail(r[far])
        np.negative(x, out=x, where=q < 0.0)
        z[tail] = x
        return z.tolist()
