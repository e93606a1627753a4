"""Kloosterman and Ramanujan sums with Weil-bound metadata.

The standard sum S(a, b; c) = sum over x mod c, gcd(x, c) = 1, of
e((a x + b x^-1)/c) is evaluated by the numpy phase-histogram kernel in
deltasum._backend. recombine_residues realizes the a + b*q recombination of
residues mod q*P, and coprime_residue_sum is the closed Ramanujan form of
the additive-character sum over those residues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

from ._backend import kloosterman_raw
from .arith import LIMIT, factorize, gcd3, inverse_mod, tau

__all__ = [
    "KloostermanValue",
    "coprime_residue_sum",
    "kloosterman",
    "ramanujan_divisors",
    "ramanujan_sum",
    "recombine_residues",
    "twisted_multiplicativity",
]


@dataclass(frozen=True)
class KloostermanValue:
    """One evaluated Kloosterman sum and its Weil bound."""

    a: int
    b: int
    c: int
    value: float
    weil_bound: float
    imag_residual: float


def weil_bound(a: int, b: int, c: int) -> float:
    """tau(c) * sqrt(gcd(a, b, c)) * sqrt(c)."""
    return tau(c) * math.sqrt(gcd3(a, b, c)) * math.sqrt(c)


def _brute_value(a: int, b: int, c: int) -> tuple[float, float]:
    return kloosterman_raw(a % c, b % c, c)


def _crt_value(a: int, b: int, c: int) -> tuple[float, float]:
    """Prime-power split via twisted multiplicativity; flag-gated fast path."""
    re = 1.0
    im_max = 0.0
    for p, e in factorize(c).factors:
        q = p**e
        inv = inverse_mod(c // q, q)
        fre, fim = _brute_value(a * inv, b * inv, q)
        re *= fre
        im_max = max(im_max, abs(fim))
    return re, im_max


def kloosterman(a: int, b: int, c: int, use_crt: bool = False) -> KloostermanValue:
    """S(a, b; c) with its Weil bound.

    use_crt enables the prime-power factorization fast path; the default is
    the direct brute-force evaluation it is verified against.
    """
    if not 1 <= c < LIMIT:
        raise ValueError(f"modulus {c} must be in [1, 2^31)")
    if use_crt and len(factorize(c).factors) > 1:
        re, im = _crt_value(a, b, c)
    else:
        re, im = _brute_value(a, b, c)
    return KloostermanValue(
        a=a,
        b=b,
        c=c,
        value=re,
        weil_bound=weil_bound(a, b, c),
        imag_residual=abs(im),
    )


def ramanujan_divisors(q: int) -> tuple[tuple[int, int], ...]:
    """The divisor list of c_q: the pairs (d, d mu(q/d)) over the d | q
    with q/d squarefree, the only d with mu(q/d) != 0, so that
    c_q(n) = sum of d mu(q/d) over the pairs with d | n.

    q is factored once, and each set S of its primes gives d = q / prod S
    with mu(q/d) = (-1)^|S|; the pairs come in the order the sets are
    added, (q, q) first.
    """
    if q < 1:
        raise ValueError("modulus must be positive")
    terms = [(q, q)]
    for p, _ in factorize(q).factors:
        terms += [(d // p, -c // p) for d, c in terms]
    return tuple(terms)


def ramanujan_sum(q: int, n):
    """c_q(n) = S(n, 0; q) = sum_{d | q} d mu(q/d) [d | n], exactly, over
    the divisor list of ramanujan_divisors.  n may be an int or an integer
    numpy array; the result is an int or an int64 array of the same shape.
    """
    total = 0
    for d, c in ramanujan_divisors(q):
        total = total + c * (n % d == 0)
    return total


def twisted_multiplicativity(
    m: int, n: int, c1: int, c2: int
) -> tuple[float, float]:
    """(left, right) with left = S(m, n; c1 c2) and right the product
    S(m c2~, n c2~; c1) * S(m c1~, n c1~; c2), inverses taken mod the other
    factor. Equality is the caller's assertion."""
    if gcd(c1, c2) != 1:
        raise ValueError("moduli must be coprime")
    left = kloosterman(m, n, c1 * c2).value
    inv2 = inverse_mod(c2, c1)
    inv1 = inverse_mod(c1, c2)
    right = (
        kloosterman(m * inv2, n * inv2, c1).value
        * kloosterman(m * inv1, n * inv1, c2).value
    )
    return left, right


def coprime_residue_sum(q: int, p: int, t):
    """sum over gamma mod q p with gcd(gamma, q) = 1 of e(t gamma / (q p)),
    exactly: p [p | t] c_q(t / p).

    With gamma = a + b q (see recombine_residues) the b-sum is p [p | t]
    and what is left is the a-sum c_q(t / p). t may be an int or an integer
    numpy array, as for ramanujan_sum.
    """
    return p * (t % p == 0) * ramanujan_sum(q, t // p)


def recombine_residues(q: int, p: int) -> list[int]:
    """Residues gamma mod q*p with gcd(gamma, q) = 1, realized as a + b*q.

    gamma = a + b q with 0 <= a < q and 0 <= b < p is a bijection onto Z/qp
    for every q and p (a is gamma mod q, then b = (gamma - a)/q), and
    gcd(gamma, q) = gcd(a, q). So {a + b q : a coprime to q} is exactly the
    coprime residues, whether or not gcd(q, p) = 1; the construction is
    checked against the direct coprimality filter.
    """
    if q < 1 or p < 1:
        raise ValueError("q and p must be positive")
    qp = q * p
    built = sorted(
        (a + b * q) % qp for a in range(q) if gcd(a, q) == 1 for b in range(p)
    )
    direct = [g for g in range(qp) if gcd(g, q) == 1]
    if built != direct:
        raise ArithmeticError("residue recombination failed internal check")
    return direct
