import cmath
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltasum import arith, characters, verify


def test_enumeration_counts_mod_1():
    chars = characters.enumerate_characters(1)
    assert len(chars) == 1
    assert chars[0].is_principal and chars[0].is_primitive
    assert chars[0](17) == 1


def test_enumeration_counts_mod_5():
    chars = characters.enumerate_characters(5)
    assert len(chars) == 4
    assert sum(c.is_primitive for c in chars) == 3


def test_enumeration_counts_mod_12():
    # brute-force oracle: all completely multiplicative unit-valued tables
    # mod 12 are characters of the group (Z/12)* = C2 x C2, so there are 4,
    # and only the one with conductor 12 is primitive
    chars = characters.enumerate_characters(12)
    assert len(chars) == 4
    assert sum(c.is_primitive for c in chars) == 1


@pytest.mark.parametrize("modulus", [2, 3, 8, 9, 15, 16, 21, 24, 40, 45])
def test_complete_multiplicativity(modulus):
    rng = random.Random(modulus)
    for chi in characters.enumerate_characters(modulus):
        for _ in range(8):
            x = rng.randrange(0, 4 * modulus)
            y = rng.randrange(0, 4 * modulus)
            assert abs(chi(x) * chi(y) - chi(x * y)) < 1e-12


def test_values_vanish_off_coprime():
    for chi in characters.enumerate_characters(12):
        for n in (0, 2, 3, 4, 6, 8, 9, 10):
            assert chi(n) == 0
        for n in (1, 5, 7, 11):
            assert abs(abs(chi(n)) - 1.0) < 1e-14


def test_conductor_examples():
    chars6 = characters.enumerate_characters(6)
    principal = next(c for c in chars6 if c.is_principal)
    lifted = next(c for c in chars6 if not c.is_principal)
    assert principal.conductor == 1
    assert lifted.conductor == 3  # the quadratic character mod 3, lifted
    for p in (5, 7, 11):
        for chi in characters.enumerate_characters(p):
            assert chi.conductor == (1 if chi.is_principal else p)


def test_gauss_sum_mod_1():
    chi = characters.enumerate_characters(1)[0]
    assert characters.gauss_sum(chi) == 1


def test_gauss_sum_quadratic_mod_5():
    # direct 4-term oracle: sum of legendre(b|5) e(b/5)
    legendre = {1: 1, 4: 1, 2: -1, 3: -1}
    direct = sum(legendre[b] * cmath.exp(2j * cmath.pi * b / 5) for b in range(1, 5))
    assert abs(direct - math.sqrt(5)) < 1e-12
    quad = next(
        c
        for c in characters.enumerate_characters(5)
        if not c.is_principal and abs(c(2).imag) < 1e-12
    )
    assert abs(characters.gauss_sum(quad) - math.sqrt(5)) < 1e-12


def test_gauss_modulus_primitive():
    row = verify.check_gauss_modulus()
    assert row.status == "PASS", row.detail


def test_orthogonality_examples():
    assert characters.orthogonality_sum(7, 2, 2) == 6
    assert characters.orthogonality_sum(7, 2, 3) == 0
    assert characters.orthogonality_sum(15, 2, 17) == 8


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    st.integers(1, 1 << 10),
    st.integers(0, 1 << 10),
    st.integers(0, 1 << 10),
    st.integers(-3, 3),
    st.booleans(),
)
def test_orthogonality_on_random_moduli(modulus, i, j, lift, same):
    """sum_chi chi(n) conj(chi(m)) = phi(M) [n = m (mod M)] for units n and
    m, on moduli up to the characters --M cap of 2^10; n is lifted by a
    multiple of M."""
    units = [r for r in range(modulus) if math.gcd(r, modulus) == 1]
    n = units[i % len(units)]
    m = n if same else units[j % len(units)]
    expected = arith.phi(modulus) if m == n else 0
    assert characters.orthogonality_sum(modulus, n + lift * modulus, m) == expected


def test_orthogonality_rejects_common_factor():
    with pytest.raises(characters.NotCoprime):
        characters.orthogonality_sum(15, 3, 2)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    st.integers(1, 200), st.integers(-(10**4), 10**4), st.integers(-(10**4), 10**4)
)
def test_additive_orthogonality(modulus, n, m):
    """sum_b e(b(n - m)/M), the b-sum of the conductor-lowered decomposition
    too: exactly M when M | n - m, within 1e-12 M of 0 otherwise."""
    total = characters.additive_orthogonality_sum(modulus, n, m)
    if (n - m) % modulus == 0:
        assert total == modulus
    else:
        assert abs(total) <= 1e-12 * modulus


def test_additive_orthogonality_rejects_nonpositive_modulus():
    for modulus in (0, -3):
        with pytest.raises(ValueError, match="modulus must be positive"):
            characters.additive_orthogonality_sum(modulus, 1, 2)


def test_enumeration_stability():
    for m in (45, 56):
        first = [
            (c.index, c.exponents(np.arange(m)).tolist())
            for c in characters.CharacterGroup(m).characters()
        ]
        second = [
            (c.index, c.exponents(np.arange(m)).tolist())
            for c in characters.CharacterGroup(m).characters()
        ]
        assert first == second


def test_primitive_count_matches_phi_star():
    for m in range(1, 121):
        chars = characters.enumerate_characters(m)
        assert len(chars) == arith.phi(m)
        assert sum(c.is_primitive for c in chars) == arith.phi_star(m)
        assert sum(c.is_principal for c in chars) == 1


def test_conjugate_character():
    for m in (5, 12, 45):
        for chi in characters.enumerate_characters(m):
            conj = chi.conjugate()
            assert conj.conductor == chi.conductor
            for n in range(m):
                assert abs(conj(n) - chi(n).conjugate()) < 1e-14


def test_value_rows_shape():
    chi = characters.enumerate_characters(5)[1]
    rows = chi.value_rows()
    assert [r[0] for r in rows] == [1, 2, 3, 4]
    assert all(r[2] == chi.group.order for r in rows)


def _reference_logs(modulus):
    """Discrete logs per prime power as a dict filled from products of
    generator powers (the generator convention of CharacterGroup)."""
    components = []
    for p, e in arith.factorize(modulus).factors:
        q = p**e
        if p == 2:
            gens = [] if e == 1 else [(3, 2)] if e == 2 else [(q - 1, 2), (5, q // 4)]
        else:
            order = arith.phi(q)
            g = next(
                g
                for g in range(2, q)
                if len({pow(g, t, q) for t in range(order)}) == order
            )
            gens = [(g, order)]
        table = {}
        for exps in itertools.product(*(range(s) for _, s in gens)):
            table[math.prod(pow(g, t, q) for (g, _), t in zip(gens, exps)) % q] = exps
        components.append((q, table))

    def logs(n):
        if math.gcd(n, modulus) != 1:
            return None
        return sum((table[n % q] for q, table in components), ())

    return logs


@pytest.mark.parametrize("modulus", [1, 2, 4, 8, 9, 12, 16, 45, 100, 211])
def test_values_match_calls_and_generator_powers(modulus):
    group = characters.CharacterGroup(modulus)
    reference = _reference_logs(modulus)
    ns = np.arange(-2 * modulus, 2 * modulus)
    e = group.order
    for chi in group.characters():
        values = chi.values(ns)
        exps = chi.exponents(ns)
        for n, v, k in zip(ns.tolist(), values.tolist(), exps.tolist()):
            logs = reference(n)
            if logs is None:
                assert k == -1 and v == 0
            else:
                expect = sum(j * t * (e // s) for j, t, s in zip(chi.index, logs, group.orders))
                assert k == expect % e
        # chi(n) is values' one-element case: a unit, a non-unit once M > 1
        # and a negative n, bit for bit, signed zeros included; an n past
        # int64 is reduced mod M first
        for n in (1, modulus, -1):
            assert repr(chi(n)) == repr(values[n + 2 * modulus].item())
            assert repr(chi(n + modulus * 2**70)) == repr(chi(n))
