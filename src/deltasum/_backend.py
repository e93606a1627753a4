"""The Kloosterman kernel: S(a, b; c) as a histogram of phases.

For each modulus the units x mod c and their inverses are tabulated once in
int64 (kept for the last few moduli, since callers sweep a modulus several
times in a row). A call reduces the phases t = a*x + b*x^-1 mod c exactly,
counts how often each phase occurs, and sums count * cos(2*pi*t/c) and
count * sin(2*pi*t/c) over the phases that occur with math.fsum, which
rounds the sum exactly and so does not depend on the order of the terms.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import factorize

# Moduli whose unit tables are kept. verify-all sweeps one modulus at a time,
# so a few entries give the hits; more would only raise the resident size.
_TABLE_CACHE = 16


@lru_cache(maxsize=_TABLE_CACHE)
def _units(c: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, x^-1 mod c) for the x in [0, c) with gcd(x, c) = 1, read-only.

    The units are what is left of [0, c) once the multiples of each prime
    factor of c are struck out (so c = 1 keeps 0).  The inverse is
    x^(phi(c) - 1) mod c by repeated squaring; c < arith.LIMIT = 2^31 keeps
    every product below 2^62.
    """
    coprime = np.ones(c, dtype=bool)
    for p, _ in factorize(c).factors:
        coprime[::p] = False
    x = np.flatnonzero(coprime).astype(np.int64, copy=False)
    inv = np.full_like(x, 1 % c)  # c = 1: the inverse of 0 is 0, in [0, c)
    base = x.copy()
    e = x.size - 1
    while e:
        if e & 1:
            inv = inv * base % c
        base = base * base % c
        e >>= 1
    x.flags.writeable = False
    inv.flags.writeable = False
    return x, inv


def kloosterman_raw(a: int, b: int, c: int) -> tuple[float, float]:
    """Sum of e((a*x + b*x^-1)/c) over x mod c with gcd(x, c) = 1.

    Requires 0 <= a, b < c < arith.LIMIT = 2^31. Returns (real, imag).
    Time and memory are O(c): about 60 bytes per residue at peak.

    Accuracy: each part is within 1e-12 absolute of the exact value for
    c <= 5000 (tested against mpmath). Rounding enters only through the
    phase angles, their cos/sin and the products count * cos; the sum of the
    products is exactly rounded.
    """
    x, inv = _units(c)
    counts = np.bincount((a * x + b * inv) % c, minlength=c)
    t = np.flatnonzero(counts)
    weight = counts[t]
    angle = 2.0 * np.pi * t / c
    # fsum walks a list of floats faster than it walks an array
    return (
        math.fsum((weight * np.cos(angle)).tolist()),
        math.fsum((weight * np.sin(angle)).tolist()),
    )
