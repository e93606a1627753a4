import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltasum import arith, verify


def test_factorize_identity_case():
    assert arith.factorize(1).factors == ()


def test_factorize_hand_value():
    assert arith.factorize(12).factors == ((2, 2), (3, 1))


def test_factorize_semiprime_oracle():
    # trial-division oracle, written independently
    n = 9991
    d = 2
    found = []
    m = n
    while d * d <= m:
        while m % d == 0:
            found.append(d)
            m //= d
        d += 1
    if m > 1:
        found.append(m)
    assert found == [97, 103]
    assert arith.factorize(n).factors == ((97, 1), (103, 1))


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        arith.factorize(0)


def test_factorize_validate_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(2, 10**9)
        fac = arith.factorize(n)
        fac.validate()
        assert math.prod(p**e for p, e in fac.factors) == n


def test_inverse_mod_examples():
    assert arith.inverse_mod(1, 7) == 1
    assert arith.inverse_mod(2, 5) == 3
    # extended-Euclid oracle for (10, 97)
    def ext_inverse(a, m):
        r0, r1, s0, s1 = m, a, 0, 1
        while r1:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            s0, s1 = s1, s0 - q * s1
        assert r0 == 1
        return s0 % m

    assert ext_inverse(10, 97) == 68
    assert arith.inverse_mod(10, 97) == 68


def test_inverse_mod_errors_and_range():
    with pytest.raises(arith.NonInvertible):
        arith.inverse_mod(6, 9)
    rng = random.Random(4)
    for _ in range(200):
        m = rng.randrange(2, 5000)
        a = rng.randrange(1, m)
        if math.gcd(a, m) != 1:
            continue
        inv = arith.inverse_mod(a, m)
        assert 1 <= inv <= m - 1
        assert a * inv % m == 1


def test_phi_star_values():
    assert arith.phi_star(1) == 1
    assert arith.phi_star(5) == 3
    assert arith.phi_star(15) == 3  # brute-forced over all 8 characters mod 15
    assert arith.phi_star(2) == 0


def test_gcd3():
    assert arith.gcd3(0, 0, 12) == 12
    assert arith.gcd3(6, 10, 4) == 2
    assert arith.gcd3(35, 21, 14) == 7
    assert arith.gcd3(-35, 21, 14) == 7


def test_multiplicative_table_identities():
    table = arith.MultiplicativeTable(10_000)
    assert table.mu[1] == table.phi[1] == 1
    row = verify.check_divisor_identities()
    assert row.status == "PASS", row.detail


def test_table_matches_point_functions():
    table = arith.MultiplicativeTable(500)
    for n in range(1, 501):
        assert table.mu[n] == arith.mobius(n)
        assert table.phi[n] == arith.phi(n)


@pytest.mark.parametrize(
    "factors",
    [
        ((1031, 2),),
        ((1031, 3),),
        ((1031, 1), (1033, 1)),
    ],
)
def test_factorize_trial_division(factors):
    # prime factors above 2^10, perfect powers included
    n = math.prod(p**e for p, e in factors)
    fac = arith.factorize(n)
    fac.validate()
    assert fac.factors == factors


def _naive_factors(n):
    found = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            found.append((d, e))
        d += 1
    if n > 1:
        found.append((n, 1))
    return tuple(found)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(1, arith.LIMIT - 1))
@example(arith.LIMIT - 1)  # the largest prime in the domain
@example(46337**2)  # the square of the largest trial prime
def test_factorize_matches_naive_division(n):
    assert arith.factorize(n).factors == _naive_factors(n)


@pytest.mark.parametrize("n", [-1, arith.LIMIT, 2**63])
def test_factorize_rejects_outside_the_domain(n):
    with pytest.raises(ValueError, match=r"1 <= n < 2\^31"):
        arith.factorize(n)


def test_is_prime_matches_factorize_on_the_domain():
    # no strong pseudoprime to the bases 2, 7 and 61 lies below 2^31, and
    # factorize is exact there: every n < 10^5, seeded draws up to 2^31 and
    # the largest prime in the domain
    rng = random.Random(61)
    draws = [rng.randrange(10**5, arith.LIMIT) for _ in range(20000)]
    for n in [*range(1, 10**5), *draws, arith.LIMIT - 1]:
        assert arith.is_prime(n) == (arith.factorize(n).factors == ((n, 1),)), n
    # strong pseudoprimes to base 2 (the last also to bases 3 and 5)
    for n in (2047, 1373653, 25326001):
        assert not arith.is_prime(n)
    with pytest.raises(ValueError, match=r"2\^31"):
        arith.is_prime(arith.LIMIT)