import hashlib
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltasum import modforms, verify


def _pentagonal_eta_power(power, scale, bound):
    """Independent oracle: expand prod (1 - q^(scale*n))^power by repeated
    naive convolution of the pentagonal series."""
    base = [0] * bound
    base[0] = 1
    k = 1
    while True:
        g1 = scale * k * (3 * k - 1) // 2
        g2 = scale * k * (3 * k + 1) // 2
        if g1 >= bound and g2 >= bound:
            break
        s = -1 if k % 2 else 1
        if g1 < bound:
            base[g1] += s
        if g2 < bound:
            base[g2] += s
        k += 1
    out = [0] * bound
    out[0] = 1
    for _ in range(power):
        nxt = [0] * bound
        for i, x in enumerate(out):
            if x == 0:
                continue
            for j, y in enumerate(base[: bound - i]):
                if y:
                    nxt[i + j] += x * y
        out = nxt
    return out


def test_eta_series_delta_oracle():
    # Ramanujan coefficients from the independent naive-convolution oracle
    oracle = _pentagonal_eta_power(24, 1, 12)
    series = modforms.eta_product_series(((1, 24),), 12)
    assert series[1] == 1
    assert series[2] == -24
    for n in range(1, 13):
        assert series[n] == oracle[n - 1]


def test_eta_series_level11_oracle():
    e1 = _pentagonal_eta_power(2, 1, 16)
    e11 = _pentagonal_eta_power(2, 11, 16)
    oracle = [0] * 16
    for i, x in enumerate(e1):
        for j, y in enumerate(e11[: 16 - i]):
            oracle[i + j] += x * y
    series = modforms.eta_product_series(((1, 2), (11, 2)), 16)
    assert series[2] == -2
    assert series[3] == -1
    for n in range(1, 17):
        assert series[n] == oracle[n - 1]


def test_eta_series_normalization():
    for recipe in (((1, 24),), ((1, 8), (2, 8)), ((1, 2), (11, 2))):
        assert modforms.eta_product_series(recipe, 10)[1] == 1


def test_eta_series_rejects_bad_leading_power():
    with pytest.raises(ValueError):
        modforms.eta_product_series(((1, 23),), 10)
    with pytest.raises(ValueError):
        modforms.eta_product_series(((1, -24),), 10)


def test_eta_series_rejects_nonpositive_exponent():
    # the lead sum(e t)/24 = 1 here, so only the exponents are at fault
    for recipe in (((1, 26), (1, -2)), ((1, 24), (2, 0))):
        with pytest.raises(ValueError, match="must be positive"):
            modforms.eta_product_series(recipe, 40)


@pytest.mark.parametrize("recipe", [((0, 5), (1, 24)), ((-1, 24), (2, 24))])
def test_eta_series_rejects_nonpositive_scale(recipe):
    # lead = sum(e t)/24 = 1 passes, so only the scale is at fault: a zero
    # scale never ends the series loops and a negative one indexes off the end
    with pytest.raises(ValueError, match=re.escape(f"eta pair {recipe[0]}")):
        modforms.eta_product_series(recipe, 10)


def test_eta_multiplication_order_determinism():
    a = modforms.eta_product_series(((1, 4), (5, 4)), 300)
    b = modforms.eta_product_series(((5, 4), (1, 4)), 300)
    assert a == b


def _schoolbook_mul_trunc(a, b, n_max):
    out = [0] * (n_max + 1)
    for i, x in enumerate(a[: n_max + 1]):
        for j, y in enumerate(b[: n_max + 1 - i]):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("scale", [1, 2, 3, 11])
def test_jacobi_series_is_the_euler_cube(scale):
    n_max = 400
    e = modforms._euler_series(scale, n_max)
    cube = _schoolbook_mul_trunc(_schoolbook_mul_trunc(e, e, n_max), e, n_max)
    assert modforms._jacobi_series(scale, n_max) == cube


def _per_factor_reference(recipe, bound):
    """a(0..bound) from one pentagonal power per pair, multiplied schoolbook."""
    series = [1] + [0] * (bound - 1)
    for t, e in recipe:
        series = _schoolbook_mul_trunc(series, _pentagonal_eta_power(e, t, bound), bound - 1)
    return [0, *series]


@pytest.mark.parametrize(
    "recipe",
    [
        ((1, 1), (23, 1)),
        ((1, 3), (7, 3)),
        ((1, 12), (2, 6)),
        ((1, 12), (1, 12)),
        ((1, 9), (3, 5)),
        ((1, 3), (3, 3), (5, 3), (15, 3)),
    ],
)
def test_eta_series_other_recipes_against_per_factor_reference(recipe):
    # exponent gcds 1, 3, 6, 12, 1 and 3: the Euler and the Jacobi factors,
    # with and without a common power, and e/g > 1
    assert modforms.eta_product_series(recipe, 200) == _per_factor_reference(recipe, 200)


def test_builtin_forms_take_fourteen_products(monkeypatch):
    calls = []
    mul = modforms._poly_mul_trunc

    def counted(a, b, n_max):
        calls.append(b is a)
        return mul(a, b, n_max)

    monkeypatch.setattr(modforms, "_poly_mul_trunc", counted)
    for _, _, recipe in modforms._FORM_RECIPES.values():
        modforms.eta_product_series(recipe, 100)
    assert len(calls) == 14 and sum(calls) == 10


def _width_bits(a, b, n_max):
    """bound.bit_length() + 2 for the product's coefficient bound: the digit
    width before it is rounded up to whole bytes."""
    la, lb = min(len(a), n_max + 1), min(len(b), n_max + 1)
    ma, mb = max(map(abs, a[:la])), max(map(abs, b[:lb]))
    return (ma * mb * min(la, lb)).bit_length() + 2


def test_poly_mul_trunc_against_schoolbook():
    rng = random.Random(20240607)
    for _ in range(300):
        bits = rng.choice((1, 2, 7, 31, 64, 65, 200))
        la, lb = rng.randrange(0, 25), rng.randrange(0, 25)
        a = [rng.randrange(-(2**bits), 2**bits + 1) for _ in range(la)]
        b = [rng.randrange(-(2**bits), 2**bits + 1) for _ in range(lb)]
        if a and rng.random() < 0.3:
            a[rng.randrange(la)] = rng.choice((2**bits, -(2**bits)))
        n_max = rng.randrange(0, la + lb + 5)
        assert modforms._poly_mul_trunc(a, b, n_max) == _schoolbook_mul_trunc(a, b, n_max)
        assert modforms._poly_mul_trunc(a, a, n_max) == _schoolbook_mul_trunc(a, a, n_max)


@pytest.mark.parametrize(
    "a,b",
    [
        ([], [1, 2, 3]),
        ([1, -1], []),
        ([0, 0, 0], [5, -7]),
        ([0] * 4, [0] * 9),
    ],
)
@pytest.mark.parametrize("n_max", [0, 1, 3, 12])
def test_poly_mul_trunc_zero_inputs(a, b, n_max):
    assert modforms._poly_mul_trunc(a, b, n_max) == [0] * (n_max + 1)
    zero = a if not any(a) else b
    assert modforms._poly_mul_trunc(zero, zero, n_max) == [0] * (n_max + 1)


@pytest.mark.parametrize("width", [8, 16, 64])
@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_poly_mul_trunc_extreme_digits_at_byte_boundaries(width, offset, sign):
    # m is chosen so the unrounded digit width lands just below, on and just
    # above a whole number of bytes; against [1]*k the middle coefficient of
    # the product reaches the full bound sign*m*k
    k = 5
    m = ((1 << (width + offset - 2)) - 1) // k
    a = [sign * m] * k
    for b in ([1] * k, [1, -1] * 2 + [1]):
        for n_max in (2, k - 1, 2 * k - 2, 3 * k):
            if n_max >= k - 1:
                assert _width_bits(a, b, n_max) == width + offset
            expected = _schoolbook_mul_trunc(a, b, n_max)
            assert modforms._poly_mul_trunc(a, b, n_max) == expected
    assert modforms._poly_mul_trunc(a, [1] * k, 2 * k)[k - 1] == sign * m * k
    # the square of [s] * k has the middle coefficient s^2 k at the bound
    s = math.isqrt(((1 << (width + offset - 2)) - 1) // k)
    sq = [sign * s] * k
    for n_max in (2, k - 1, 2 * k - 2, 3 * k):
        if n_max >= k - 1:
            assert _width_bits(sq, sq, n_max) == width + offset
        assert modforms._poly_mul_trunc(sq, sq, n_max) == _schoolbook_mul_trunc(sq, sq, n_max)
    assert modforms._poly_mul_trunc(sq, sq, 2 * k)[k - 1] == s * s * k


def test_eta_series_bound_range():
    for bad in (0, 250_001):
        with pytest.raises(ValueError, match="250000"):
            modforms.eta_product_series(((1, 24),), bad)


# sha256 of ",".join(a(0..bound)) for each built-in form: at 5000 as built
# by the shift-and-add packing that the byte-aligned one replaced, at 2000
# and 3000 (the voronoi benchmark's bounds and the default) and at 20000 as
# built one pentagonal power per pair, before the common power and Jacobi
_FORMS_AT_2000_SHA256 = {
    "Delta_1_12": "bac730c3e2d33d3be9611629f695d0eef130d84be3cb694441e0d9996301a2af",
    "E8_2_8": "4dcc9a8763da3df8e451a29cf267f90dac5915bc807220cb152ccc060e5299a3",
    "E6_3_6": "70b9ada663874e8669cece1181e10c78a3819eb895407a0ecc1f74ec5fe4ee85",
    "E4_5_4": "f9bdb86bc60dc67069edf7cfd9077cd3b04ed665424e6921d4599f1e04b9c844",
    "E2_11_2": "78a7cd97e14680b2ae3097ad2589fec2c73dcc6e17176aa18982b45efdd9a342",
}
_FORMS_AT_3000_SHA256 = {
    "Delta_1_12": "b54c30105ee6b77857a4a02859a8b2a78af4ff7db60161f593a7c67c542e4a1a",
    "E8_2_8": "43f7a4572429bc2840cae03d6b35e0b0ec533459d3deb1b751ede1643fbf1566",
    "E6_3_6": "5e6afe0aa4d7a63a17dcfe7e07c5ad439e64f2488491e5068e947d520089cd35",
    "E4_5_4": "ad84b2622648d126e9ac02858c826043cdb61a3d42e23d5377a6edeaab997c65",
    "E2_11_2": "5ac36f540700bf701c5bce621cd8cb6fe467fe68165794ceb188c4b489faca37",
}
_E2_11_2_AT_20000_SHA256 = "d94ad2f9daabf6afaa502e8531371721d2ec559a15a037f2745a8d724dad3050"
_FORMS_AT_5000_SHA256 = {
    "Delta_1_12": "0c5b8a7750230f6b0a06379d409eeed7dd42ffd5a62387c2656667d9d3317723",
    "E8_2_8": "99144c483473e9572d8642f19a17dc32eae29608780935dfee5163416aa07c8c",
    "E6_3_6": "a730e1748c3aa6afbf763e3cd081d7a7cc8a53d329a35557a38264164dabd88d",
    "E4_5_4": "7107c75d33a23eca6135653e8229ef3259442af0df01ba0d9edd1648c8a4d659",
    "E2_11_2": "2fecea9198212a0734cce43631a03f42f829282baad49966010184e877cce82d",
}


@pytest.mark.parametrize("form_id", modforms.BUILTIN_FORM_IDS)
def test_builtin_coefficients_unchanged(form_id):
    recipe = modforms._FORM_RECIPES[form_id][2]
    for bound, pins in ((2000, _FORMS_AT_2000_SHA256), (3000, _FORMS_AT_3000_SHA256),
                        (5000, _FORMS_AT_5000_SHA256)):
        assert _sha256(modforms.eta_product_series(recipe, bound)) == pins[form_id], bound


def test_level11_coefficients_unchanged_at_voronoi_bound():
    coeffs = modforms.eta_product_series(modforms._FORM_RECIPES["E2_11_2"][2], 20000)
    assert _sha256(coeffs) == _E2_11_2_AT_20000_SHA256


def _sha256(coeffs):
    return hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()


def test_lambda_normalization(all_forms):
    for f in all_forms.values():
        assert f.lam(1) == 1.0
    assert all_forms["Delta_1_12"].lam(2) == pytest.approx(-24 / 2**5.5)
    assert all_forms["E2_11_2"].lam(2) == pytest.approx(-2 / math.sqrt(2))


def test_lambda_out_of_bounds(delta_form):
    with pytest.raises(modforms.InsufficientCoefficients):
        delta_form.lam(delta_form.bound + 1)
    for bad in (0, delta_form.bound + 1):
        with pytest.raises(modforms.InsufficientCoefficients):
            delta_form.lam(np.array([1, bad, 2]))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.sampled_from(modforms.BUILTIN_FORM_IDS), st.integers(1, 3000))
def test_lambda_matches_exact(all_forms, form_id, n):
    """The accuracy contract of Newform.lam: relative error at most 2^-51
    against a(n) / n^((k-1)/2) at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    f = all_forms[form_id]
    with mpmath.workdps(30):
        exact = mpmath.mpf(f.a(n)) / mpmath.mpf(n) ** (mpmath.mpf(f.weight - 1) / 2)
        err = abs(f.lam(n) - exact)
        assert err <= 2.0**-51 * abs(exact), (form_id, n, float(err / exact))


def test_lambda_scalar_is_one_element_array(all_forms):
    """Every lam(n) is bitwise the one-element array call and the element of
    the whole-range call, for all n <= 3000 of the five forms."""
    for f in all_forms.values():
        ns = np.arange(1, f.bound + 1)
        values = f.lam(ns)
        assert values.dtype == np.float64 and type(f.lam(7)) is float
        singles = [f.lam(n) for n in ns.tolist()]
        assert singles == [f.lam(np.array([n]))[0] for n in ns.tolist()] == values.tolist()


def test_hecke_residual_examples(all_forms):
    d = all_forms["Delta_1_12"]
    assert modforms.hecke_residual_exact(d, 2, 2) == 0  # lam(2)^2 = lam(4) + 1
    e = all_forms["E2_11_2"]
    assert modforms.hecke_residual_exact(e, 11, 2) == 0


def test_hecke_residual_range_check(all_forms):
    """One range check covers m, n and m n: m n past the bound, or m or n
    below 1, raises before any coefficient is read."""
    d = all_forms["Delta_1_12"]
    assert modforms.hecke_residual_exact(d, 2, d.bound // 2) == 0
    with pytest.raises(modforms.InsufficientCoefficients, match=rf"a\({2 * (d.bound // 2 + 1)}\)"):
        modforms.hecke_residual_exact(d, 2, d.bound // 2 + 1)
    for m, n in ((0, 5), (5, 0), (-2, -3)):
        with pytest.raises(modforms.InsufficientCoefficients):
            modforms.hecke_residual_exact(d, m, n)


def test_level_coefficient_square():
    row = verify.check_level_coefficient()
    assert row.status == "MONITOR", row.detail
