"""Fourier coefficients of the built-in eta-product newforms.

Five holomorphic newforms of prime (or trivial) level and trivial
nebentypus, each realized as an eta product with integer q-expansion:

    Delta_1_12   level 1,  weight 12   eta(z)^24
    E8_2_8       level 2,  weight 8    eta(z)^8  eta(2z)^8
    E6_3_6       level 3,  weight 6    eta(z)^6  eta(3z)^6
    E4_5_4       level 5,  weight 4    eta(z)^4  eta(5z)^4
    E2_11_2      level 11, weight 2    eta(z)^2  eta(11z)^2

Coefficients are generated on demand from the sparse expansions of
E(q) = prod (1 - q^n): Euler's pentagonal-number series, and Jacobi's
series for E(q)^3. Arithmetic is exact throughout (Python ints, so
intermediate growth can never overflow). Normalized eigenvalues
lambda(n) = a(n) / n^((k-1)/2) leave the integers only at that final step.

Each form is one power of a product of sparse series: eta(z)^24 is
(E^3)^8, and eta(z)^e eta(P z)^e is (E(q) E(q^P))^e, or (E(q)^3
E(q^P)^3)^(e/3) when 3 | e. Series are multiplied by Kronecker
substitution with byte-aligned digits (Harvey, J. Symbolic Comput.
2009): each coefficient list becomes one big integer whose base-256^w
digits are the coefficients, written with `int.to_bytes` and read back
with `int.from_bytes` after a bias of half a digit makes every digit of
the product nonnegative. Packing and unpacking cost time linear in the
number of digits, so the big-integer products dominate: the squarings of
the power, 10 of the 14 products that build the five forms. Every eta
scale and exponent is positive, so no series is ever inverted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from .arith import divisors, tau

__all__ = [
    "InsufficientCoefficients",
    "Newform",
    "builtin_form",
    "BUILTIN_FORM_IDS",
    "deligne_ok",
    "eta_product_series",
    "hecke_residual_exact",
]


class InsufficientCoefficients(ValueError):
    """A computation needs coefficients beyond the stored bound."""


def _pack(coeffs: list[int], nbytes: int) -> int:
    """sum coeffs[i] * 256^(nbytes*i): the positive and the negative
    coefficients are written as two little-endian byte strings of
    nbytes-wide digits and subtracted, so the cost is linear in the length."""
    zero = bytes(nbytes)
    pos = b"".join(x.to_bytes(nbytes, "little") if x > 0 else zero for x in coeffs)
    neg = b"".join((-x).to_bytes(nbytes, "little") if x < 0 else zero for x in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _poly_mul_trunc(a: list[int], b: list[int], n_max: int) -> list[int]:
    """Exact truncated product of integer coefficient lists, degrees 0..n_max.

    Kronecker substitution with byte-aligned digits: every coefficient of
    the product is below bound = max|a| * max|b| * min(len) in absolute
    value, so digits of bits >= bound.bit_length() + 2, rounded up to whole
    bytes, never interfere. Each polynomial is packed into one big integer
    (`_pack`), the two are multiplied, and a bias of half = 2^(bits-1) is
    added to each of the n_max + 1 low digits; masked to those digits, the
    biased product has digits c_i + half in [0, 2^bits), which one
    `to_bytes` buffer yields slice by slice. Packing and unpacking are
    linear in the number of digits; the one big multiplication dominates.
    When b is a, a is packed once and the integer squared: CPython
    multiplies one object by itself with its faster squaring path.
    """
    la = min(len(a), n_max + 1)
    ma = max((abs(x) for x in a[:la]), default=0)
    if b is a:
        lb, mb = la, ma
    else:
        lb = min(len(b), n_max + 1)
        mb = max((abs(x) for x in b[:lb]), default=0)
    if ma == 0 or mb == 0:
        return [0] * (n_max + 1)
    bound = ma * mb * min(la, lb)
    nbytes = (bound.bit_length() + 2 + 7) // 8
    bits = 8 * nbytes
    half = 1 << (bits - 1)
    n = n_max + 1
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")
    pa = _pack(a[:la], nbytes)
    prod = (pa * pa if b is a else pa * _pack(b[:lb], nbytes)) + bias
    buf = (prod & ((1 << (bits * n)) - 1)).to_bytes(nbytes * n, "little")
    return [
        int.from_bytes(buf[i : i + nbytes], "little") - half
        for i in range(0, nbytes * n, nbytes)
    ]


def _poly_pow_trunc(a: list[int], k: int, n_max: int) -> list[int]:
    """a^k to degree n_max for k >= 1 and len(a) = n_max + 1, started from
    the first factor rather than from the series 1."""
    result = None
    base = a
    while k:
        if k & 1:
            result = base if result is None else _poly_mul_trunc(result, base, n_max)
        k >>= 1
        if k:
            base = _poly_mul_trunc(base, base, n_max)
    return result


def _euler_series(scale: int, n_max: int) -> list[int]:
    """prod_{n >= 1} (1 - q^(scale*n)) via generalized pentagonal numbers."""
    out = [0] * (n_max + 1)
    out[0] = 1
    k = 1
    while True:
        g1 = scale * k * (3 * k - 1) // 2
        g2 = scale * k * (3 * k + 1) // 2
        if g1 > n_max and g2 > n_max:
            break
        sign = -1 if k % 2 else 1
        if g1 <= n_max:
            out[g1] += sign
        if g2 <= n_max:
            out[g2] += sign
        k += 1
    return out


def _jacobi_series(scale: int, n_max: int) -> list[int]:
    """prod_{n >= 1} (1 - q^(scale*n))^3 = sum_{k >= 0} (-1)^k (2k+1)
    q^(scale*k(k+1)/2), Jacobi's identity (Hardy-Wright, Thm 357)."""
    out = [0] * (n_max + 1)
    k = 0
    while (g := scale * k * (k + 1) // 2) <= n_max:
        out[g] = -(2 * k + 1) if k % 2 else 2 * k + 1
        k += 1
    return out


def eta_product_series(
    exponent_pairs: tuple[tuple[int, int], ...], bound: int
) -> list[int]:
    """Coefficients a(n) of prod eta(t z)^e / q^lead, indexed so a(1) = 1.

    Every scale t and exponent e must be a positive int and lead =
    sum(e*t)/24 an integer (rejected otherwise); a(n) is the coefficient of
    q^(n-1) in the product of the Euler factors E(q^t) = prod (1 - q^(tn)).

    With g the gcd of the exponents, the product is base^g for base =
    prod E(q^t)^(e/g); when 3 | g the factors are the sparse cubes
    E(q^t)^3 of `_jacobi_series` and the power is g/3. The built-in
    recipes have e/g = 1, so base is a product of sparse series and only
    the power, by repeated squaring, multiplies dense ones.
    """
    if bound < 1 or bound > 250_000:
        raise ValueError(f"bound {bound} must be in [1, 250000]")
    for t, e in exponent_pairs:
        if not (isinstance(t, int) and isinstance(e, int) and t > 0 and e > 0):
            raise ValueError(
                f"eta pair {(t, e)}: scale and exponent must be positive ints"
            )
    lead = Fraction(sum(e * t for t, e in exponent_pairs), 24)
    if lead.denominator != 1 or lead <= 0:
        raise ValueError(f"leading q-power {lead} is not a positive integer")
    n_max = bound - 1
    g = gcd(*(e for _, e in exponent_pairs))
    factor, power = (_jacobi_series, g // 3) if g % 3 == 0 else (_euler_series, g)
    # lead > 0, so the product has a first factor
    base = None
    for t, e in exponent_pairs:
        f = _poly_pow_trunc(factor(t, n_max), e // g, n_max)
        base = f if base is None else _poly_mul_trunc(base, f, n_max)
    return [0, *_poly_pow_trunc(base, power, n_max)]


@dataclass(frozen=True)
class Newform:
    """Integer Fourier coefficients a(n) of one form, a(1) = 1, and the
    float64 table of the normalized eigenvalues, built once."""

    form_id: str
    level: int
    weight: int
    coefficients: tuple[int, ...]  # index n; entry 0 unused
    _lam: np.ndarray = field(init=False, repr=False, compare=False)  # lambda(n) at n - 1

    def __post_init__(self):
        ns = np.arange(1, len(self.coefficients), dtype=float)
        lam = np.array(self.coefficients[1:], dtype=float) / ns ** ((self.weight - 1) / 2)
        object.__setattr__(self, "_lam", lam)

    @property
    def bound(self) -> int:
        return len(self.coefficients) - 1

    def a(self, n: int) -> int:
        if not 1 <= n <= self.bound:
            raise InsufficientCoefficients(
                f"{self.form_id}: a({n}) beyond stored bound {self.bound}"
            )
        return self.coefficients[n]

    def lam(self, n):
        """Normalized eigenvalue lambda(n) = a(n) / n^((k-1)/2) of an int or
        an integer array n: a float or a float64 array of n's shape, read
        from one table, so a scalar call is the one-element array call.

        Accuracy contract, tested against a(n) / n^((k-1)/2) at 30 digits
        for the five built-in forms: relative error at most 2^-51.
        """
        ns = np.asarray(n, dtype=np.int64)
        outside = (ns < 1) | (ns > self.bound)
        if outside.any():
            bad = ns[outside].flat[0]
            raise InsufficientCoefficients(f"{self.form_id}: lam({bad}) beyond bound {self.bound}")
        values = self._lam[ns - 1]
        return float(values) if values.ndim == 0 else values


_FORM_RECIPES: dict[str, tuple[int, int, tuple[tuple[int, int], ...]]] = {
    "Delta_1_12": (1, 12, ((1, 24),)),
    "E8_2_8": (2, 8, ((1, 8), (2, 8))),
    "E6_3_6": (3, 6, ((1, 6), (3, 6))),
    "E4_5_4": (5, 4, ((1, 4), (5, 4))),
    "E2_11_2": (11, 2, ((1, 2), (11, 2))),
}

BUILTIN_FORM_IDS = tuple(_FORM_RECIPES)


@lru_cache(maxsize=32)
def builtin_form(form_id: str, bound: int = 3000) -> Newform:
    """One of the five built-in forms, with coefficients up to bound."""
    if form_id not in _FORM_RECIPES:
        raise KeyError(f"unknown form id {form_id!r}; choose from {BUILTIN_FORM_IDS}")
    level, weight, recipe = _FORM_RECIPES[form_id]
    coeffs = eta_product_series(recipe, bound)
    return Newform(form_id, level, weight, tuple(coeffs))


def hecke_residual_exact(f: Newform, m: int, n: int) -> int:
    """Integer form: |a(m) a(n) - sum_d d^(k-1) a(m n / d^2)|, zero for a
    genuine eigenform.  With gcd(m, n) = 1 the sum is its d = 1 term."""
    if gcd(n, f.level) != 1:
        raise ValueError("n must be coprime to the level")
    # m, n >= 1 and m n within the bound puts every index read below in range
    if not (m >= 1 and n >= 1 and m * n <= f.bound):
        bad = m * n if m >= 1 and n >= 1 else min(m, n)
        raise InsufficientCoefficients(f"{f.form_id}: a({bad}) beyond stored bound {f.bound}")
    a = f.coefficients
    g = gcd(m, n)
    if g == 1:
        return abs(a[m] * a[n] - a[m * n])
    rhs = 0
    for d in divisors(g):
        if gcd(d, f.level) == 1:
            rhs += d ** (f.weight - 1) * a[m * n // (d * d)]
    return abs(a[m] * a[n] - rhs)


def deligne_ok(f: Newform, n: int) -> bool:
    """Exact check of |a(n)| <= tau(n) n^((k-1)/2), squared to stay integral."""
    return f.a(n) ** 2 <= tau(n) ** 2 * n ** (f.weight - 1)
