import cmath
import hashlib
import math
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from deltasum import modforms, pipeline, verify
from deltasum.expsums import coprime_residue_sum, kloosterman, ramanujan_sum
from deltasum.kernels import (
    DeltaScheme,
    SmoothBump,
    Stratum,
    _weight_columns,
    delta_weight_array,
)


def _spec(f, m, r, x, y=None):
    return pipeline.ShiftedSumSpec(
        f1=f,
        f2=f,
        r=r,
        shift_modulus=m,
        x_scale=x,
        y_scale=y or x,
        window=pipeline.default_window(),
    )


def test_q_cap_examples():
    assert pipeline.q_cap(2, 2, 1) == pytest.approx(4.0)
    assert pipeline.q_cap(8, 2, 4) == pytest.approx(4.0)


def test_q_cap_keeps_weight_support():
    # with this cap, 2 |n - m + rM| / (P Q^2) never exceeds 1 on the grid
    for level, x in ((2, 20.0), (11, 40.0)):
        cap = pipeline.q_cap(x, x, level)
        t_max = 4.0 * x
        assert 2.0 * t_max / (level * cap * cap) <= 1.0 + 1e-12


def test_spec_validation(level11_form, delta_form):
    with pytest.raises(ValueError):
        _spec(level11_form, 11, 1, 20.0)  # shift modulus shares the level
    with pytest.raises(ValueError):
        _spec(level11_form, 2, 0, 20.0)  # r = 0
    with pytest.raises(ValueError):
        _spec(level11_form, 12, 1, 20.0)  # not squarefree
    with pytest.raises(ValueError):
        pipeline.ShiftedSumSpec(
            f1=level11_form, f2=delta_form, r=1, shift_modulus=2,
            x_scale=20.0, y_scale=20.0, window=pipeline.default_window(),
        )
    f5 = modforms.builtin_form("E4_5_4")
    with pytest.raises(ValueError):
        _spec(f5, 2, 5, 20.0)  # r shares the level


def test_shifted_sum_direct_reference_loop(delta_form):
    # independent reference loop
    spec = _spec(delta_form, 3, 1, 30.0)
    w = spec.window
    total = 0.0
    for n in range(1, 200):
        m = n + 3
        fx = w.fx(n / 30.0)
        fy = w.fy(m / 30.0)
        if fx == 0.0 or fy == 0.0:
            continue
        total += (
            delta_form.lam(n) * delta_form.lam(m) / math.sqrt(n * m) * fx * fy
        )
    assert pipeline.shifted_sum_direct(spec) == pytest.approx(total, rel=1e-12)


def test_shifted_sum_relabeling_symmetry(level11_form):
    a = pipeline.shifted_sum_direct(_spec(level11_form, 2, 1, 40.0, 30.0))
    b = pipeline.shifted_sum_direct(_spec(level11_form, 2, -1, 30.0, 40.0))
    assert a == pytest.approx(b, rel=1e-12)


def test_shifted_sum_empty_support(delta_form):
    spec = _spec(delta_form, 5, 100, 20.0)
    assert pipeline.shifted_sum_direct(spec) == 0.0
    rep = pipeline.shifted_sum_delta(spec)
    assert abs(rep.delta_value) < 1e-10 and rep.direct_value == 0.0


def test_shifted_sum_insufficient_coefficients(moment_window):
    small = modforms.Newform("tiny", 1, 12, tuple([0, 1, -24]))
    spec = pipeline.ShiftedSumSpec(
        f1=small, f2=small, r=1, shift_modulus=3, x_scale=30.0, y_scale=30.0,
        window=pipeline.default_window(),
    )
    with pytest.raises(modforms.InsufficientCoefficients):
        pipeline.shifted_sum_direct(spec)


def test_shifted_sum_delta_identity(delta_form, level11_form):
    rep = pipeline.shifted_sum_delta(_spec(delta_form, 3, 1, 30.0))
    assert rep.identity_residual <= max(1e-6 * abs(rep.direct_value), 1e-10)
    # level 1 collapses the partition
    assert rep.stratum_gamma == 0.0 and rep.stratum_modulus == 0.0
    assert rep.stratum_coprime == pytest.approx(rep.delta_value, rel=1e-12)
    rep11 = pipeline.shifted_sum_delta(_spec(level11_form, 2, 1, 40.0))
    assert rep11.identity_residual <= max(1e-6 * abs(rep11.direct_value), 1e-10)
    assert rep11.partition_residual <= 1e-8 * abs(rep11.delta_value)
    # Q < P leaves the modulus stratum empty
    assert rep11.stratum_modulus == 0.0
    # Q = sqrt(8 * 20 / 2) ~ 8.9 > P = 2: q = 2, 4, 6, 8 fill the modulus stratum
    rep2 = pipeline.shifted_sum_delta(_spec(modforms.builtin_form("E8_2_8"), 3, 1, 20.0))
    assert rep2.identity_residual <= max(1e-6 * abs(rep2.direct_value), 1e-10)
    assert rep2.partition_residual <= 1e-8 * abs(rep2.delta_value)
    assert 0.0 not in (rep2.stratum_coprime, rep2.stratum_gamma, rep2.stratum_modulus)


@pytest.mark.parametrize("level", [1, 2, 3, 5, 11])
def test_gamma_sum_closed_forms(level):
    """The decomposition's gamma-sums against literal cosine sums over
    gamma mod qP with gcd(gamma, q) = 1: the whole sum is P [P | t]
    c_q(t/P); for P > 1 not dividing q the coprime stratum is c_{qP}(t),
    the gamma-multiple stratum c_q(t), and the two add up exactly."""
    ts = np.arange(-60, 61, dtype=np.int64)

    def literal(gammas, qp):
        return np.cos(2.0 * np.pi * (np.outer(ts, gammas) % qp) / qp).sum(axis=1)

    for q in range(1, 25):
        qp = q * level
        gammas = np.array([g for g in range(qp) if gcd(g, q) == 1], dtype=np.int64)
        whole = coprime_residue_sum(q, level, ts)
        assert whole.dtype == np.int64
        assert np.abs(literal(gammas, qp) - whole).max() <= 1e-12, q
        if level == 1 or q % level == 0:
            continue
        coprime = ramanujan_sum(qp, ts)
        multiple = ramanujan_sum(q, ts)
        assert np.abs(literal(gammas[gammas % level != 0], qp) - coprime).max() <= 1e-12
        assert np.abs(literal(gammas[gammas % level == 0], qp) - multiple).max() <= 1e-12
        assert np.array_equal(coprime + multiple, whole), q


@pytest.mark.parametrize("level", [1, 2, 3, 5, 11])
def test_gamma_sums_from_residue_tables_are_exact(level):
    """_gamma_sums reads each closed form from a table over t mod qP; at
    signed t, the shifted sums' t-range spanning 0, the values are the
    int64s of coprime_residue_sum and ramanujan_sum evaluated on t itself."""
    ts = np.arange(-3000, 3000, dtype=np.int64)
    for q in range(1, 201):
        want = [coprime_residue_sum(q, level, ts)]
        if level > 1 and q % level:
            want += [ramanujan_sum(q * level, ts), ramanujan_sum(q, ts)]
        got = pipeline._gamma_sums(q, level, ts)
        assert len(got) == len(want), q
        for values, expected in zip(got, want):
            assert values.dtype == np.int64 and np.array_equal(values, expected), q


@pytest.mark.parametrize("level", [1, 2, 11])
def test_weight_columns_match_the_weight_on_signed_n(level):
    """_weight_columns evaluates the weight once per q on the distinct |n|;
    its (q, live, g) equal, bit for bit, those read from delta_weight_array
    on the raw signed array, duplicates and zeros included."""
    rng = np.random.default_rng(19)
    ns = np.concatenate([rng.integers(-8000, 8000, 3000), [0, 0, 5, -5, 7999, -8000]])
    q_scale = pipeline.q_cap(2000.0, 2000.0, level)
    scheme = DeltaScheme(q_scale, level, pipeline.default_delta_bump())
    ys = ns / (level * q_scale * q_scale)
    want = []
    for q in range(1, scheme.q_max(8000) + 1):
        g = delta_weight_array(q / q_scale, ys, scheme.bump)
        live = np.flatnonzero(g)
        if live.size:
            want.append((q, live, g[live]))
    got = list(_weight_columns(scheme, ns))
    assert [q for q, _, _ in got] == [q for q, _, _ in want]
    for (q, live, g), (_, live_want, g_want) in zip(got, want):
        assert np.array_equal(live, live_want) and np.array_equal(g, g_want), q


def _ladder_top_rung():
    """repr of shifted_sum_delta for one spec per built-in form at X = Y =
    2000, the top rung of the benchmark's shifted-sum ladder: r = 1 and the
    least shift modulus in (2, 3, 5, 7) coprime to the level."""
    lines = []
    for form_id in modforms.BUILTIN_FORM_IDS:
        f = modforms.builtin_form(form_id, bound=5000)
        m = next(m for m in (2, 3, 5, 7) if gcd(m, f.level) == 1)
        lines.append(repr(pipeline.shifted_sum_delta(_spec(f, m, 1, 2000.0))))
    return lines


# sha256 of _ladder_top_rung, joined by newlines, as written when each
# gamma-sum was evaluated on every live t and the weight on every t
_LADDER_SHA256 = "efb387b5fbf9813fb6eff7db2c91125ae5fd984c5ec60d50fbaf4ca4ce6385f6"


def test_ladder_top_rung_unchanged():
    digest = hashlib.sha256("\n".join(_ladder_top_rung()).encode()).hexdigest()
    assert digest == _LADDER_SHA256


def test_kloosterman_collapse_examples():
    direct, closed = pipeline.kloosterman_collapse(Stratum.COPRIME, 1, 2, 1, 2, 5, 3)
    assert closed == pytest.approx(kloosterman(2, 1, 15).value, abs=1e-12)
    assert abs(direct - closed) < 1e-8
    assert abs(direct.imag) < 1e-9

    direct, closed = pipeline.kloosterman_collapse(Stratum.GAMMA, 1, 2, 1, 2, 5, 3)
    inv5 = pow(5, -1, 3)
    assert closed == pytest.approx(kloosterman(2, inv5, 3).value, abs=1e-12)
    assert abs(direct - closed) < 1e-8

    direct, closed = pipeline.kloosterman_collapse(Stratum.MODULUS, 1, 1, 5, 5, 2, 1)
    assert closed == pytest.approx(0.0, abs=1e-12)  # Ramanujan sum c_4(1)
    assert abs(direct) < 1e-12


def test_kloosterman_collapse_random():
    rng = random.Random(99)
    for stratum in (Stratum.COPRIME, Stratum.GAMMA, Stratum.MODULUS):
        done = 0
        while done < 30:
            level = rng.choice((2, 3, 5, 11))
            q = rng.randrange(1, 10)
            if stratum != Stratum.MODULUS and gcd(q, level) != 1:
                continue
            r = rng.choice((1, -1, 2, -2))
            if gcd(r, level) != 1:
                continue
            direct, closed = pipeline.kloosterman_collapse(
                stratum, r, rng.randrange(1, 6), rng.randrange(1, 40),
                rng.randrange(1, 40), level, q,
            )
            assert abs(direct - closed) < 1e-8
            done += 1


def test_kloosterman_collapse_rejects_shared_factor():
    with pytest.raises(ValueError):
        pipeline.kloosterman_collapse(Stratum.COPRIME, 1, 1, 1, 2, 5, 10)


def test_voronoi_unit_phase(delta_form):
    h = SmoothBump(40.0, 200.0, sharpness=1.0, normalization="peak")
    f = modforms.builtin_form("Delta_1_12", bound=4000)
    rep = pipeline.verify_voronoi(f, 1, 1, h)
    assert rep.eta_abs_error <= 1e-6
    assert rep.residual <= 1e-5
    assert abs(rep.eta - 1) <= 1e-8  # gcd(q, P) = 1: eta = 1 is predicted


def test_voronoi_level11_q3():
    h = SmoothBump(40.0, 200.0, sharpness=1.0, normalization="peak")
    f = modforms.builtin_form("E2_11_2", bound=20000)
    rep = pipeline.verify_voronoi(f, 1, 3, h)
    assert rep.eta_abs_error <= 1e-6
    assert rep.residual <= 1e-5
    assert abs(rep.eta - 1) <= 1e-8  # gcd(q, P) = 1: eta = 1 is predicted


def test_voronoi_linear_in_test_function():
    # scaling h leaves the solved phase unchanged
    f = modforms.builtin_form("E8_2_8", bound=4000)
    h1 = SmoothBump(40.0, 200.0, sharpness=1.0, normalization="peak", target=1.0)
    h2 = SmoothBump(40.0, 200.0, sharpness=1.0, normalization="peak", target=2.0)
    r1 = pipeline.verify_voronoi(f, 1, 3, h1)
    r2 = pipeline.verify_voronoi(f, 1, 3, h2)
    assert abs(r1.eta - r2.eta) < 1e-8


@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("form_id", modforms.BUILTIN_FORM_IDS)
def test_dual_side_fused_matches_separate(form_id, q):
    # one Bessel matrix per block for both test functions, each keeping its
    # own terms and its own stop: bit for bit the two separate sums
    f = modforms.builtin_form(form_id, bound=pipeline.VORONOI_BOUNDS[form_id])
    h = SmoothBump(40.0, 200.0, sharpness=1.0, normalization="peak")
    h2 = SmoothBump(40.0, 200.0, sharpness=1.7, normalization="peak")
    fused = pipeline._dual_side(f, 1, q, (h, h2), 1e-12)
    separate = [pipeline._dual_side(f, 1, q, (g,), 1e-12)[0] for g in (h, h2)]
    assert [(repr(z), n) for z, n in fused] == [(repr(z), n) for z, n in separate]


def _y_uniform_integral(jv, order, root_scale, n, h):
    # the oracle rule: 20-point Gauss-Legendre on equal panels in y, at least
    # one per cycle of the phase and at least 40 for the bump's edges
    cycles = 2.0 * math.sqrt(n) * (math.sqrt(h.hi) - math.sqrt(h.lo)) / root_scale
    panels = max(40, math.ceil(cycles))
    nodes, weights = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(h.lo, h.hi, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    ys = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * nodes).ravel()
    values = jv(order, (4.0 * math.pi / root_scale) * np.sqrt(n * ys)) * h.value_array(ys)
    return float(values @ np.tile(half * weights, panels))


@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("form_id", modforms.BUILTIN_FORM_IDS)
def test_dual_integrals_match_independent_oracle(form_id, q):
    # _dual_integrals' contract: I_h(n) within 1e-12 absolute of scipy's J
    # on a rule uniform in y, for n from the first block, a middle block and
    # the last block before the two quiet blocks that end the sum
    jv = pytest.importorskip("scipy.special").jv
    f = modforms.builtin_form(form_id, bound=pipeline.VORONOI_BOUNDS[form_id])
    hs = (
        SmoothBump(40.0, 200.0, sharpness=1.0, normalization="peak"),
        SmoothBump(40.0, 200.0, sharpness=1.7, normalization="peak"),
    )
    used = max(n for _, n in pipeline._dual_side(f, 1, q, hs, 1e-12))
    p2 = f.level // math.gcd(f.level, q)
    root_scale = q * math.sqrt(p2)
    last = used // 256 - 3
    worst = 0.0
    for b in sorted({0, last // 2, last}):
        start, stop = 256 * b + 1, 256 * b + 256
        # the rule depends on the block's largest n alone, so a subset ending
        # there gets the block's own integrals
        ns = np.array([start, start + 1, (start + stop) // 2, stop])
        got = pipeline._dual_integrals(f.weight - 1, root_scale, ns, hs)
        for h, values in zip(hs, got):
            for n, value in zip(ns, values):
                oracle = _y_uniform_integral(jv, f.weight - 1, root_scale, int(n), h)
                worst = max(worst, abs(value - oracle))
    assert worst <= 1e-12, worst


def test_voronoi_rejects_shared_factor(delta_form):
    h = SmoothBump(40.0, 200.0, sharpness=1.0, normalization="peak")
    with pytest.raises(ValueError):
        pipeline.verify_voronoi(delta_form, 2, 4, h)


def test_second_moment_trivial_modulus(delta_form, moment_window):
    # M = 1: the single character is principal and primitive
    value = pipeline.second_moment(delta_form, 1, 30.0, moment_window)
    direct = 0.0 + 0.0j
    for n in range(1, 200):
        hv = moment_window(n / 30.0)
        if hv:
            direct += delta_form.lam(n) / math.sqrt(n) * hv
    assert value == pytest.approx(abs(direct) ** 2, rel=1e-12)


def test_second_moment_reference_loop(level11_form, moment_window):
    # independent loop over the three primitive characters mod 5
    from deltasum.characters import enumerate_characters

    value = pipeline.second_moment(level11_form, 5, 20.0, moment_window)
    chars = [c for c in enumerate_characters(5) if c.is_primitive]
    acc = 0.0
    for chi in chars:
        s = 0.0 + 0.0j
        for n in range(1, 100):
            hv = moment_window(n / 20.0)
            if hv:
                s += chi(n) * level11_form.lam(n) / math.sqrt(n) * hv
        acc += abs(s) ** 2
    assert value == pytest.approx(acc / len(chars), rel=1e-12)
    assert value >= 0.0


def test_gauss_square_opening_trivial(delta_form, moment_window):
    lhs, rhs = pipeline.gauss_square_opening(delta_form, 1, 30.0, moment_window)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_diagonal_split_reconstruction(delta_form, moment_window):
    split = pipeline.diagonal_split(delta_form, 3, 30.0, moment_window)
    _, aggregate = pipeline.residue_class_average(delta_form, 3, 30.0, moment_window)
    assert split.diagonal >= 0.0
    recon = 3 * (split.diagonal + split.off_diagonal)
    assert aggregate == pytest.approx(recon, abs=1e-8 * max(abs(aggregate), 1e-2))
    # direct congruence-constrained double-sum oracle
    direct = 0.0
    for n in range(1, 200):
        hn = moment_window(n / 30.0)
        if not hn:
            continue
        for m in range(1, 200):
            if (m - n) % 3:
                continue
            hm = moment_window(m / 30.0)
            if hm:
                direct += (
                    delta_form.lam(n) * delta_form.lam(m) / math.sqrt(n * m) * hn * hm
                )
    assert split.diagonal + split.off_diagonal == pytest.approx(direct, rel=1e-10)
    # diagonal reference loop
    diagonal = 0.0
    for n in range(1, 200):
        hv = moment_window(n / 30.0)
        if hv:
            diagonal += delta_form.lam(n) ** 2 / n * hv * hv
    assert split.diagonal == pytest.approx(diagonal, rel=1e-10)


@pytest.mark.parametrize("modulus", [3, 7, 31])
def test_diagonal_split_lag_sums(level11_form, moment_window, modulus):
    # one exactly rounded sum per lag, against a dictionary lookup loop
    x_scale = 40.0
    split = pipeline.diagonal_split(level11_form, modulus, x_scale, moment_window)
    vals = {}
    for n in range(1, 100):
        hv = moment_window(n / x_scale)
        if hv:
            vals[n] = level11_form.lam(n) / math.sqrt(n) * hv
    expect = []
    for r in range(1, split.r_bound + 1):
        for sign in (1, -1):
            lag = math.fsum(v * vals.get(n + sign * r * modulus, 0.0) for n, v in vals.items())
            if sign == 1:
                expect.append(lag)
            else:
                assert lag == expect[-1]
    assert split.lag_sums == tuple(expect)
    assert split.off_diagonal == pytest.approx(2 * sum(expect), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("modulus", [1, 3, 7, 13, 31])
def test_residue_class_average_literal(delta_form, moment_window, modulus):
    # literal cosine sums T_b = sum_n v_n e(n b / M), one fsum per b
    t_b, aggregate = pipeline.residue_class_average(delta_form, modulus, 30.0, moment_window)
    literal = []
    for b in range(modulus):
        re = []
        im = []
        for n in range(1, 75):
            v = delta_form.lam(n) / math.sqrt(n) * moment_window(n / 30.0)
            z = cmath.exp(2j * cmath.pi * ((n * b) % modulus) / modulus)
            re.append(v * z.real)
            im.append(v * z.imag)
        literal.append(complex(math.fsum(re), math.fsum(im)))
    scale = max(abs(t) for t in literal)
    assert len(t_b) == modulus
    for got, want in zip(t_b, literal):
        assert abs(got - want) <= 1e-12 * scale
    assert aggregate == pytest.approx(math.fsum(abs(t) ** 2 for t in literal), rel=1e-12)


@pytest.mark.parametrize("modulus", [401, 499])
def test_second_moment_congruence_classes(level11_form, moment_window, modulus):
    # sum* chi(a) conj(chi(b)) = sum_{d | (M, a - b)} phi(d) mu(M/d) gives the
    # moment from class sums alone, with no character values
    x_scale = 300.0
    value = pipeline.second_moment(level11_form, modulus, x_scale, moment_window)
    classes = verify._moment_by_classes(level11_form, modulus, x_scale, moment_window)
    assert abs(value - classes) <= 1e-12 * abs(value)


def test_diagonal_split_no_admissible_shift(delta_form, moment_window):
    split = pipeline.diagonal_split(delta_form, 31, 9.0, moment_window)
    assert split.off_diagonal == 0.0


def test_second_moment_rejects_bad_modulus(level11_form, moment_window):
    with pytest.raises(ValueError):
        pipeline.second_moment(level11_form, 11, 20.0, moment_window)
    with pytest.raises(ValueError):
        pipeline.second_moment(level11_form, 12, 20.0, moment_window)


def test_second_moment_bound():
    # P = 1, delta = epsilon = 0: bound collapses to 1 + M^(-1/4)
    for modulus in (5, 20, 100):
        v = pipeline.second_moment_bound(1, modulus, modulus, 0.0, 0.0)
        assert v == pytest.approx(1.0 + modulus**-0.25)
    v1 = pipeline.second_moment_bound(1, 20, 20.0, 0.0, 0.0)
    v2 = pipeline.second_moment_bound(1, 40, 40.0, 0.0, 0.0)
    assert (v2 - 1.0) / (v1 - 1.0) == pytest.approx(2.0**-0.25)
    with pytest.raises(ValueError):
        pipeline.second_moment_bound(3, 20, 1.0, 0.05, 0.05)


def test_shifted_sum_bound_shape(delta_form):
    spec = _spec(delta_form, 3, 1, 30.0)
    w = spec.window
    expected = (
        w.z_bound
        * math.sqrt(w.zx_bound * w.zy_bound)
        * max(w.zx_bound, w.zy_bound) ** 2
        * 30.0**0.75
        / 30.0
    )
    assert pipeline.shifted_sum_bound(spec) == pytest.approx(expected)


def test_exponent_budget_examples():
    b = pipeline.exponent_budget(Fraction(2, 5))
    assert b.delta == 0 and not b.subconvex
    b = pipeline.exponent_budget(0)
    assert b.delta == Fraction(1, 10)
    assert b.final_exponent == Fraction(1, 5)
    b = pipeline.exponent_budget(Fraction(2, 7))
    assert b.delta == Fraction(1, 40)
    assert b.classical_threshold == Fraction(2, 7)


def test_exponent_budget_blomer_harcos_shape():
    # independent recomputation from the two bound terms
    for eta in (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)):
        b = pipeline.exponent_budget(eta)
        expect = (
            Fraction(1, 4)
            - Fraction(1, 8) / (2 + eta)
            - (1 - eta) / (4 * (2 + eta))
        )
        assert b.blomer_harcos_exponent == expect


def test_exponent_budget_subconvex_range():
    for num in range(0, 60):
        eta = Fraction(num, 100)
        assert pipeline.exponent_budget(eta).subconvex == (0 < eta < Fraction(2, 5))
    with pytest.raises(ValueError):
        pipeline.exponent_budget(Fraction(-1, 10))


def test_exponent_budget_exactness():
    b = pipeline.exponent_budget(Fraction(1, 3))
    assert b.delta == Fraction(2 - Fraction(5, 3), 10 * (2 + Fraction(1, 3)))
    assert isinstance(b.delta, Fraction)
