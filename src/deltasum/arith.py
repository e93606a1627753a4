"""Exact integer arithmetic underlying the character and exponential sums.

Factorization, modular inverses, CRT-free divisor machinery, and the
multiplicative functions mu, phi, tau and phi* (the count of primitive
characters), on the one integer domain 1 <= n < LIMIT = 2^31. Everything
here is a pure function of its inputs; MultiplicativeTable is immutable
after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import compress

__all__ = [
    "Factorization",
    "LIMIT",
    "MultiplicativeTable",
    "NonInvertible",
    "divisors",
    "factorize",
    "gcd3",
    "inverse_mod",
    "is_prime",
    "is_squarefree",
    "mobius",
    "phi",
    "phi_star",
    "tau",
]


# The one integer domain of the library: every modulus, level and argument
# that is factored or tabulated is a positive integer below this.
LIMIT = 1 << 31


class NonInvertible(ValueError):
    """Raised when a residue has no multiplicative inverse."""


# Miller-Rabin witnesses: no strong pseudoprime to the bases 2, 7 and 61
# lies below 4759123141 > LIMIT (Jaeschke, Math. Comp. 61, 1993)
_MR_WITNESSES = (2, 7, 61)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test on the domain n < LIMIT =
    2^31; ValueError at or above it."""
    if n >= LIMIT:
        raise ValueError(f"is_prime requires n < 2^31, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """n = prod p^e with primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def validate(self) -> None:
        prod = 1
        prev = 1
        for p, e in self.factors:
            if e < 1 or p <= prev or not is_prime(p):
                raise ValueError(f"invalid factorization of {self.n}")
            prev = p
            prod *= p**e
        if prod != self.n:
            raise ValueError(f"factor product {prod} != {self.n}")


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(compress(range(n), sieve))


# factorize's trial divisors: the 4792 primes up to isqrt(LIMIT) = 46340, in
# blocks of 32 with the product of each block's primes
_TRIAL_PRIMES = _primes_below(math.isqrt(LIMIT) + 1)
_TRIAL_BLOCKS = tuple(
    (_TRIAL_PRIMES[i : i + 32], math.prod(_TRIAL_PRIMES[i : i + 32]))
    for i in range(0, len(_TRIAL_PRIMES), 32)
)


def factorize(n: int) -> Factorization:
    """Factor 1 <= n < LIMIT = 2^31 by trial division by the primes up to
    46340, a block of 32 primes at a time: one gcd with the block's product
    skips a block that divides nothing, and only the block's primes that
    divide that gcd are divided out.  Blocks are walked while the square of
    a block's first prime is at most what is left, so what is left at the
    end is 1 or a prime.  ValueError outside that domain."""
    if not 1 <= n < LIMIT:
        raise ValueError(f"factorize requires 1 <= n < 2^31, got {n}")
    factors = []
    m = n
    for primes, product in _TRIAL_BLOCKS:
        if primes[0] * primes[0] > m:
            break
        g = math.gcd(m, product)
        if g == 1:
            continue
        for p in primes:
            if p * p > m:
                break
            if g % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                factors.append((p, e))
                g //= p
                if g == 1:
                    break
    if m > 1:
        # no prime up to isqrt(m) divides m
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def divisors(n: int | Factorization) -> list[int]:
    """All positive divisors of n, sorted increasing."""
    fac = n if isinstance(n, Factorization) else factorize(n)
    divs = [1]
    for p, e in fac.factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for _, e in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def phi(n: int) -> int:
    fac = factorize(n)
    return reduce(lambda acc, pe: acc // pe[0] * (pe[0] - 1), fac.factors, n)


def tau(n: int) -> int:
    return math.prod(e + 1 for _, e in factorize(n).factors)


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n).factors)


def phi_star(m: int) -> int:
    """Number of primitive Dirichlet characters mod m.

    Evaluated through the divisor sum sum_{d|m} mu(d) phi(m/d); the
    character module's enumeration doubles as an independent oracle.
    """
    if m < 1:
        raise ValueError("phi_star requires m >= 1")
    return sum(mobius(d) * phi(m // d) for d in divisors(m))


def inverse_mod(a: int, m: int) -> int:
    """Inverse of a mod m, in [1, m-1] for m >= 2; by convention 0 for m = 1."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return 0
    if math.gcd(a, m) != 1:
        raise NonInvertible(f"{a} is not invertible mod {m}")
    return pow(a, -1, m)


def gcd3(a: int, b: int, c: int) -> int:
    """gcd(|a|, |b|, c) with gcd(0, 0, c) = c."""
    if c < 1:
        raise ValueError("third argument must be positive")
    return math.gcd(math.gcd(abs(a), abs(b)), c)


class MultiplicativeTable:
    """Sieved values of mu and phi for 1 <= n <= bound."""

    def __init__(self, bound: int):
        if bound < 1:
            raise ValueError("bound must be >= 1")
        self.bound = bound
        spf = list(range(bound + 1))  # smallest prime factor
        for p in range(2, int(math.isqrt(bound)) + 1):
            if spf[p] == p:
                for q in range(p * p, bound + 1, p):
                    if spf[q] == q:
                        spf[q] = p
        mu = [0] * (bound + 1)
        ph = [0] * (bound + 1)
        mu[1] = ph[1] = 1
        for n in range(2, bound + 1):
            p = spf[n]
            m = n // p
            if m % p == 0:
                mu[n] = 0
                ph[n] = ph[m] * p
            else:
                mu[n] = -mu[m]
                ph[n] = ph[m] * (p - 1)
        self.mu = tuple(mu)
        self.phi = tuple(ph)
