import cmath
import math
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltasum import arith, expsums, verify


def test_hand_values():
    assert abs(expsums.kloosterman(1, 1, 2).value - 1.0) < 1e-12
    assert abs(expsums.kloosterman(1, 1, 3).value + 1.0) < 1e-12


def test_weil_bound_fields():
    v = expsums.kloosterman(1, 1, 3)
    assert v.weil_bound == pytest.approx(2 * math.sqrt(3))
    assert abs(v.value) <= v.weil_bound


def test_symmetry():
    """Selberg's identity, whose two sides have different phase histograms
    where neither a nor b is a unit mod c."""
    row = verify.check_kloosterman_symmetry()
    assert row.status == "PASS", row.detail


def test_collapse_bit_for_bit():
    """The independent plain-loop restatement of the kernel agrees bitwise."""
    row = verify.check_collapse_bitwise()
    assert row.status == "PASS", row.detail


def test_twisted_multiplicativity_examples():
    left, right = expsums.twisted_multiplicativity(1, 1, 2, 3)
    assert left == pytest.approx(-1.0, abs=1e-12)
    assert right == pytest.approx(-1.0, abs=1e-12)
    # direct oracle for the right-hand factors
    s22_3 = sum(
        cmath.exp(2j * cmath.pi * ((2 * x + 2 * pow(x, -1, 3)) % 3) / 3)
        for x in (1, 2)
    )
    assert s22_3.real == pytest.approx(-1.0, abs=1e-12)
    left, right = expsums.twisted_multiplicativity(0, 0, 2, 3)
    assert left == pytest.approx(arith.phi(6), abs=1e-12)
    assert right == pytest.approx(arith.phi(2) * arith.phi(3), abs=1e-12)


def test_twisted_multiplicativity_rejects_common_factor():
    with pytest.raises(ValueError):
        expsums.twisted_multiplicativity(1, 1, 4, 6)


def test_ramanujan_sum_formula():
    # direct additive-sum oracle
    for q in range(1, 80):
        for n in (0, 1, 2, 6, 30):
            direct = sum(
                cmath.exp(2j * cmath.pi * a * n / q)
                for a in range(q)
                if gcd(a, q) == 1
            )
            assert abs(direct.real - expsums.ramanujan_sum(q, n)) < 1e-8
            assert expsums.ramanujan_sum(q, 0) == arith.phi(q)
        # one code path for ints and int64 arrays, exact in both
        ns = np.arange(-60, 61, dtype=np.int64)
        values = expsums.ramanujan_sum(q, ns)
        assert values.dtype == np.int64
        assert values.tolist() == [expsums.ramanujan_sum(q, int(n)) for n in ns]


def test_ramanujan_sum_matches_divisor_mobius_sum():
    """The array path against the literal sum over every divisor d of q of
    d mu(q/d) [d | n], for every q < 2500 on [-3000, 3000)."""
    ns = np.arange(-3000, 3000, dtype=np.int64)
    for q in range(1, 2500):
        literal = np.zeros_like(ns)
        for d in arith.divisors(q):
            mu = arith.mobius(q // d)
            if mu:
                literal += d * mu * (ns % d == 0)
        assert np.array_equal(expsums.ramanujan_sum(q, ns), literal), q


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(1, 3000), st.integers(1, 12), st.integers(-(10**6), 10**6))
@example(1, 1, 0)
@example(2310, 1, 1)
def test_ramanujan_sum_matches_cosine_sums(q, j, k):
    """c_q(n), the divisor list of ramanujan_divisors, against the literal
    sum of cos(2 pi (a n mod q) / q) over the a mod q coprime to q, for
    n = k floor(q / j): a multiple of a large divisor of q whenever j | q.
    Each argument is within 3 u 2 pi of its value (three roundings of a
    number below 2 pi) and each cosine adds one ulp, so the fsum is within
    (6 pi + 1) u phi(q) < 20 u phi(q), u = 2^-53.  The shifted sums'
    gamma-sums read the same list."""
    n = k * (q // j)
    residues = np.array([a for a in range(q) if gcd(a, q) == 1], dtype=np.int64)
    literal = math.fsum(np.cos(2.0 * np.pi * ((residues * n) % q) / q).tolist())
    error = abs(expsums.ramanujan_sum(q, n) - literal)
    assert error <= 20 * 2.0**-53 * residues.size, (q, n, error)


def test_recombine_residues():
    assert expsums.recombine_residues(1, 3) == [0, 1, 2]
    assert expsums.recombine_residues(2, 3) == [1, 3, 5]
    got = expsums.recombine_residues(4, 5)
    assert len(got) == 10
    assert got == [g for g in range(20) if gcd(g, 4) == 1]
    # a + b q is a bijection onto Z/qp also when gcd(q, p) > 1
    assert set(expsums.recombine_residues(4, 6)) == {g for g in range(24) if gcd(g, 4) == 1}


def test_recombination_cardinality():
    rng = random.Random(8)
    for _ in range(30):
        q = rng.randrange(1, 40)
        p = rng.randrange(1, 40)
        assert len(expsums.recombine_residues(q, p)) == arith.phi(q) * p
