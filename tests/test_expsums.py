import cmath
import math
import random
from math import gcd

import numpy as np
import pytest

from deltasum import arith, expsums, verify


def test_hand_values():
    assert abs(expsums.kloosterman(1, 1, 2).value - 1.0) < 1e-12
    assert abs(expsums.kloosterman(1, 1, 3).value + 1.0) < 1e-12


def test_ramanujan_degeneration():
    for c in range(1, 501):
        v = expsums.kloosterman(1, 0, c)
        assert abs(v.value - arith.mobius(c)) < 1e-9
        assert v.imag_residual <= 1e-9 * c


def test_weil_bound_fields():
    v = expsums.kloosterman(1, 1, 3)
    assert v.weil_bound == pytest.approx(2 * math.sqrt(3))
    assert abs(v.value) <= v.weil_bound


def test_weil_bound_random_sweep():
    rng = random.Random(1)
    for c in range(1, 501):
        for _ in range(5):
            a, b = rng.randrange(-10**5, 10**5), rng.randrange(-10**5, 10**5)
            v = expsums.kloosterman(a, b, c)
            assert abs(v.value) <= v.weil_bound + 1e-9


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


def test_twisted_multiplicativity_random():
    rng = random.Random(77)
    done = 0
    while done < 200:
        c1, c2 = rng.randrange(1, 110), rng.randrange(1, 110)
        if gcd(c1, c2) != 1 or c1 * c2 > 10**4:
            continue
        done += 1
        m, n = rng.randrange(-60, 60), rng.randrange(-60, 60)
        left, right = expsums.twisted_multiplicativity(m, n, c1, c2)
        assert left == pytest.approx(right, abs=1e-8)


def test_twisted_multiplicativity_rejects_common_factor():
    with pytest.raises(ValueError):
        expsums.twisted_multiplicativity(1, 1, 4, 6)


def test_crt_flag_agreement():
    rng = random.Random(5)
    for _ in range(1000):
        c = rng.randrange(2, 2500)
        a, b = rng.randrange(-10**3, 10**3), rng.randrange(-10**3, 10**3)
        assert expsums.kloosterman(a, b, c, use_crt=True).value == pytest.approx(
            expsums.kloosterman(a, b, c).value, abs=1e-8
        )


def test_cusp_pair_sum():
    # degenerates to the Moebius value when n = m
    assert expsums.cusp_pair_sum(1, 1, 5, 5, 5, 3) == pytest.approx(-1.0, abs=1e-12)
    # direct 6-term evaluation of S(3, 3; 7): inverse of 5 mod 7 is 3
    direct = sum(
        cmath.exp(2j * cmath.pi * ((3 * x + 3 * pow(x, -1, 7)) % 7) / 7)
        for x in range(1, 7)
    ).real
    assert expsums.cusp_pair_sum(1, 3, 2, 1, 5, 7) == pytest.approx(direct, abs=1e-9)
    with pytest.raises(arith.NonInvertible):
        expsums.cusp_pair_sum(1, 1, 0, 0, 3, 9)


def test_principal_cusp_sum():
    # r = 0 degenerates to a Ramanujan sum
    assert expsums.principal_cusp_sum(0, 1, 5, 2, 5, 2) == pytest.approx(
        expsums.ramanujan_sum(10, 3), abs=1e-9
    )
    # direct 4-term evaluation of S(3, 1; 10)
    direct = sum(
        cmath.exp(2j * cmath.pi * ((3 * x + pow(x, -1, 10)) % 10) / 10)
        for x in (1, 3, 7, 9)
    )
    assert abs(direct.imag) < 1e-12
    assert expsums.principal_cusp_sum(1, 3, 2, 1, 5, 2) == pytest.approx(
        direct.real, abs=1e-9
    )


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
