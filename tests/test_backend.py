"""The Kloosterman kernel against an independent mpmath oracle."""

import random
from math import gcd

import numpy as np
from mpmath import mp

import deltasum
from deltasum._backend import _units, kloosterman_raw

# the accuracy contract stated in kloosterman_raw's docstring
ABS_TOL = 1e-12


def _oracle(a: int, b: int, c: int) -> tuple[float, float]:
    """S(a, b; c) term by term at 40 digits, with Python's own inverses."""
    with mp.workdps(40):
        total = mp.fsum(
            mp.expjpi(mp.mpf(2 * ((a * x + b * pow(x, -1, c)) % c)) / c)
            for x in range(c)
            if gcd(x, c) == 1
        )
        return float(total.real), float(total.imag)


def _prime_powers(limit: int) -> list[int]:
    primes = [p for p in range(2, int(limit**0.5) + 1) if all(p % d for d in range(2, p))]
    out = []
    for p in primes:
        q = p * p
        while q <= limit:
            out.append(q)
            q *= p
    return sorted(out)


def _cases() -> list[tuple[int, int, int]]:
    rng = random.Random(2016)
    moduli = list(range(1, 301)) + _prime_powers(5000) + [4999]
    moduli += [rng.randrange(301, 5001) for _ in range(12)]
    return [(rng.randrange(c), rng.randrange(c), c) for c in moduli]


def test_backend_reported():
    assert deltasum.backend_name() == "numpy"


def test_kernel_matches_mpmath():
    for a, b, c in _cases():
        re, im = kloosterman_raw(a, b, c)
        ore, oim = _oracle(a, b, c)
        assert abs(re - ore) <= ABS_TOL, (a, b, c, re - ore)
        assert abs(im - oim) <= ABS_TOL, (a, b, c, im - oim)


def test_kernel_edge_cases():
    assert kloosterman_raw(0, 0, 1) == (1.0, 0.0)
    # phi(12) = 4 units, every phase zero
    assert kloosterman_raw(0, 0, 12) == (4.0, 0.0)


def test_unit_tables_are_the_gcd_filter():
    """_units(c) strikes the multiples of c's primes out of [0, c): the same
    int64 residues as the literal gcd filter, each with its inverse in
    [0, c) (at c = 1 the unit 0 is its own inverse)."""
    for c in range(1, 3001):
        x, inv = _units(c)
        ref = np.arange(c, dtype=np.int64)
        ref = ref[np.gcd(ref, c) == 1]
        assert x.dtype == inv.dtype == np.int64, c
        assert np.array_equal(x, ref), c
        assert np.all(x * inv % c == 1 % c), c
        assert np.all((0 <= inv) & (inv < c)), c
        assert not (x.flags.writeable or inv.flags.writeable), c
