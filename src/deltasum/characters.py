"""Dirichlet characters mod M with exact root-of-unity value storage.

A CharacterGroup fixes the generator convention once and for all (least
primitive root for odd prime powers, the pair -1 and 5 for 2^k with k >= 3),
so enumeration order and value tables are identical across runs. The group
holds one int64 table of discrete logs over the residues mod M (one column
per cyclic factor, -1 on the non-units), built from generator powers.
Character values are exact exponents k with chi(n) = e(k/ord), read from that
table for whole arrays of n at once (chi(n) is the one-element case); complex
numbers are read from _root_table(N), the one array of e(k/N) per N, only at
evaluation, which keeps multiplicativity checks exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd

import numpy as np

from .arith import divisors, factorize, phi

__all__ = [
    "CharacterGroup",
    "DirichletCharacter",
    "NotCoprime",
    "additive_orthogonality_sum",
    "enumerate_characters",
    "gauss_sum",
    "orthogonality_sum",
]


# the most cells a transient of CharacterGroup.conductors holds: 2^15 int64
# (256 KiB) keeps each chunk's temporaries in cache; at 2^16 the conductors
# of M = 8191 took 0.65 s against 0.40 s
_TABLE_CELLS = 1 << 15


class NotCoprime(ValueError):
    """Raised when an argument shares a factor with the modulus."""


@lru_cache(maxsize=512)
def _root_table(order: int) -> np.ndarray:
    """e(k / order) for k = 0 .. order - 1, the one table of roots of unity:
    cmath.exp's values as a read-only complex128 array."""
    roots = np.array([cmath.exp(2j * cmath.pi * k / order) for k in range(order)])
    roots.flags.writeable = False
    return roots


def _least_primitive_root(q: int) -> int:
    """Least primitive root mod q = p^e for odd prime p."""
    order = phi(q)
    prime_divs = [r for r, _ in factorize(order).factors]
    g = 2
    while True:
        if gcd(g, q) == 1 and all(pow(g, order // r, q) != 1 for r in prime_divs):
            return g
        g += 1


def _component_table(q: int, gens: list[tuple[int, int]]) -> np.ndarray:
    """Discrete logs mod q on the given generators: row v holds the
    exponents t with v = prod g_i^t_i (mod q), -1 where v is not a unit."""
    residues = np.ones(1, dtype=np.int64)
    exps = np.zeros((1, 0), dtype=np.int64)
    for g, s in gens:
        powers = np.array([pow(g, t, q) for t in range(s)], dtype=np.int64)
        residues = (residues[:, None] * powers[None, :] % q).ravel()
        exps = np.hstack(
            [np.repeat(exps, s, axis=0), np.tile(np.arange(s), len(exps))[:, None]]
        )
    table = np.full((q, len(gens)), -1, dtype=np.int64)
    table[residues] = exps
    return table


class CharacterGroup:
    """Unit group structure mod M: cyclic factors, generators, log table."""

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        self.modulus = modulus
        self.factorization = factorize(modulus)
        residues = np.arange(modulus, dtype=np.int64)
        columns = [np.zeros((modulus, 0), dtype=np.int64)]
        orders: list[int] = []
        for p, e in self.factorization.factors:
            q = p**e
            if p == 2:
                if e == 1:
                    gens: list[tuple[int, int]] = []
                elif e == 2:
                    gens = [(3, 2)]
                else:
                    gens = [(q - 1, 2), (5, q // 4)]
            else:
                gens = [(_least_primitive_root(q), phi(q))]
            columns.append(_component_table(q, gens)[residues % q])
            orders.extend(s for _, s in gens)
        self.orders = tuple(orders)
        self.order = math.lcm(*self.orders) if self.orders else 1
        self.units = np.gcd(residues, modulus) == 1
        # logs[n] = discrete logs of n on every generator, -1 off the units
        self.logs = np.hstack(columns)
        self.logs[~self.units] = -1
        self.roots = _root_table(self.order)
        # logs of the units n = 1 (mod d), one block per divisor d of M,
        # stacked; n = 1 is in every block, so none is empty
        self._kernel_divisors = divisors(self.factorization)
        blocks = [
            self.logs[self.units & (residues % d == 1 % d)]
            for d in self._kernel_divisors
        ]
        self._kernel_starts = np.cumsum([0] + [len(b) for b in blocks[:-1]])
        self._kernel_logs = np.vstack(blocks)

    @cached_property
    def weights(self) -> np.ndarray:
        """The exponent weights of every character, read-only, shape
        (phi(M), r): row j is character j in characters() order (the
        lexicographic order of the indices), column i holds
        index_i * (order / order_i).  M in {1, 2} has no generators and
        one character, so shape (1, 0)."""
        count = math.prod(self.orders)
        indices = np.indices(self.orders).reshape(len(self.orders), count).T
        table = indices * (self.order // np.array(self.orders, dtype=np.int64))
        table.flags.writeable = False
        return table

    @cached_property
    def conductors(self) -> np.ndarray:
        """The conductor of every character, read-only, in characters() order:
        the least d | M such that chi(n) = 1 for every unit n = 1 (mod d).

        The test is direct and formula-free, so it can serve as the phi*
        oracle: chi moves a kernel row n when its exponent n . weights is
        nonzero mod the order, and the conductor is the first divisor block
        in which it moves nothing (d = M always qualifies).  It runs over a
        few characters at a time, so no transient exceeds _TABLE_CELLS.
        """
        rows = len(self._kernel_logs)
        step = max(1, _TABLE_CELLS // rows)
        first = np.empty(len(self.weights), dtype=np.int64)
        for start in range(0, len(first), step):
            moved = self._kernel_logs @ self.weights[start : start + step].T % self.order != 0
            blocks = np.logical_or.reduceat(moved, self._kernel_starts, axis=0)
            first[start : start + step] = blocks.argmin(axis=0)
        table = np.array(self._kernel_divisors, dtype=np.int64)[first]
        table.flags.writeable = False
        return table

    def characters(self) -> list[DirichletCharacter]:
        """All phi(M) characters, in the fixed lexicographic index order."""
        return [DirichletCharacter(group=self, index=index) for index in np.ndindex(*self.orders)]


@dataclass(frozen=True)
class DirichletCharacter:
    """A character mod M, indexed by its exponents on the fixed generators.

    chi(g_i) = e(index_i / order_i); values on arbitrary residues follow by
    complete multiplicativity through the group's log table.
    """

    group: CharacterGroup
    index: tuple[int, ...]
    conductor: int = field(init=False)
    is_primitive: bool = field(init=False)
    is_principal: bool = field(init=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        orders = self.group.orders
        if len(self.index) != len(orders):
            raise ValueError(f"index {self.index} does not match the orders {orders}")
        # the character's row in the group's tables
        row = 0
        for j, s in zip(self.index, orders):
            if not 0 <= j < s:
                raise ValueError(f"index {self.index} outside the orders {orders}")
            row = row * s + j
        object.__setattr__(self, "_weights", self.group.weights[row])
        object.__setattr__(self, "is_principal", not any(self.index))
        object.__setattr__(self, "conductor", int(self.group.conductors[row]))
        object.__setattr__(
            self, "is_primitive", self.conductor == self.group.modulus
        )

    @property
    def modulus(self) -> int:
        return self.group.modulus

    def exponents(self, ns) -> np.ndarray:
        """k with chi(n) = e(k/order) for each integer n, -1 where
        gcd(n, M) > 1."""
        g = self.group
        res = np.asarray(ns, dtype=np.int64) % g.modulus
        return np.where(g.units[res], g.logs[res] @ self._weights % g.order, -1)

    def values(self, ns) -> np.ndarray:
        """chi(n) for each integer n as complex128, 0 where gcd(n, M) > 1."""
        k = self.exponents(ns)
        return np.where(k >= 0, self.group.roots[k], 0)

    def __call__(self, n: int) -> complex:
        """chi(n) for one integer n: the one-element case of values, on n
        reduced mod M first, so any Python int is accepted."""
        return complex(self.values(n % self.modulus))

    def conjugate(self) -> DirichletCharacter:
        """The complex-conjugate character (indices negated)."""
        index = tuple((-j) % s for j, s in zip(self.index, self.group.orders))
        return DirichletCharacter(group=self.group, index=index)

    def value_rows(self) -> list[tuple[int, int, int]]:
        """(residue, exponent numerator, exponent denominator) rows, coprime
        residues only, for the CSV dump."""
        exps = self.exponents(np.arange(self.modulus))
        units = np.flatnonzero(exps >= 0)
        e = self.group.order
        return [(n, k, e) for n, k in zip(units.tolist(), exps[units].tolist())]


@lru_cache(maxsize=64)
def _group(modulus: int) -> CharacterGroup:
    return CharacterGroup(modulus)


def enumerate_characters(modulus: int) -> list[DirichletCharacter]:
    """All Dirichlet characters mod M in a fixed, reproducible order."""
    return _group(modulus).characters()


def gauss_sum(chi: DirichletCharacter) -> complex:
    """tau(chi) = sum_b chi(b) e(b/M), via exactly rounded summation."""
    vals = chi.values(np.arange(chi.modulus))
    adds = _root_table(chi.modulus)
    re_terms = vals.real * adds.real - vals.imag * adds.imag
    im_terms = vals.real * adds.imag + vals.imag * adds.real
    return complex(math.fsum(re_terms), math.fsum(im_terms))


def orthogonality_sum(modulus: int, n: int, m: int) -> int:
    """sum over all chi mod M of chi(n) conj(chi(m)).

    Equals phi(M) when n = m (mod M) and 0 otherwise; returned exactly,
    rounded from a near-integer compensated sum.
    """
    if gcd(n, modulus) != 1 or gcd(m, modulus) != 1:
        raise NotCoprime(f"{n}*{m} shares a factor with {modulus}")
    group = _group(modulus)
    diff = group.logs[n % modulus] - group.logs[m % modulus]
    k = diff @ group.weights.T % group.order
    total = math.fsum(group.roots[k].real)
    nearest = round(total)
    if abs(total - nearest) > 1e-6:
        raise ArithmeticError(f"character sum not near-integer: {total}")
    return nearest


def additive_orthogonality_sum(modulus: int, n: int, m: int) -> complex:
    """sum_b e(b(n-m)/M), compensated; equals M exactly when M | n - m."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    z = _root_table(modulus)[np.arange(modulus) * ((n - m) % modulus) % modulus]
    return complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))
