"""The verify-all rows: a declared check returns its full row, a NaN
among a gated row's values fails it, and a numerical failure raised in a
row is that row's FAIL."""

import math

import numpy as np
import pytest

from deltasum import expsums, kernels, modforms, pipeline, verify


def test_eta_determinism_fail_row(monkeypatch):
    # a series that depends on the order of the recipe makes the two
    # multiplication orders disagree
    monkeypatch.setattr(modforms, "eta_product_series", lambda recipe, bound: list(recipe))
    assert verify.check_eta_determinism() == verify.CheckResult(
        "modforms.eta-determinism",
        "eta expansion independent of multiplication order",
        "FAIL",
        "level-11 recipe, two orders, 600 coefficients",
    )


def test_voronoi_row_fails_on_nan(monkeypatch):
    report = pipeline.VoronoiReport(eta=1.0, eta_abs_error=math.nan, residual=0.0, dual_terms=1)
    monkeypatch.setattr(pipeline, "verify_voronoi", lambda *args: report)
    row = verify.check_voronoi()
    assert row.status == "FAIL" and "worst_eta_modulus_error nan" in row.detail


def test_crt_flag_row_fails_on_nan(monkeypatch):
    monkeypatch.setattr(expsums, "_crt_value", lambda a, b, c: (math.nan, math.nan))
    row = verify.check_crt_flag()
    assert row.status == "FAIL" and "worst_deviation nan" in row.detail


def test_recombination_row_checks_the_set(monkeypatch):
    # moving one gamma by q p keeps its class mod q p and the count, so the
    # periodic cosine sums cannot see it; the set comparison must
    recombine = expsums.recombine_residues

    def moved(q, p):
        gammas = recombine(q, p)
        return gammas[:-1] + [gammas[-1] + q * p]

    monkeypatch.setattr(expsums, "recombine_residues", moved)
    row = verify.check_residue_recombination()
    assert row.status == "FAIL" and "gcd filter" in row.detail


def test_moment_slope_row_shows_nan(monkeypatch):
    strength = verify._shift_strength
    monkeypatch.setattr(
        verify,
        "_shift_strength",
        lambda f, modulus, x, h: math.nan if modulus == 13 else strength(f, modulus, x, h),
    )
    row = verify.check_moment_slope()
    assert row.status == "MONITOR" and "Delta_1_12: slope=nan constant=nan" in row.detail


def test_lag_reference_is_the_cell_by_cell_midpoint_sum():
    """The double-integral reference, summed by lag, against the literal
    midpoint double sum over every cell of the same 240 x 200 grid."""
    a, b, c, q, q_cap, level, r_shift, x_scale, y_scale, order = verify._J_CASES[1]
    bump = pipeline.default_delta_bump()
    window = pipeline.default_window()
    h = 2 * min(x_scale, y_scale) / 200
    xs = x_scale / 2 + (np.arange(240) + 0.5) * h
    ys = y_scale / 2 + (np.arange(200) + 0.5) * h
    fx = window.fx.value_array(xs / x_scale) * kernels.bessel_j_array(
        order, 4 * math.pi * a * np.sqrt(xs)
    ) / np.sqrt(xs)
    fy = window.fy.value_array(ys / y_scale) * kernels.bessel_j_array(
        order, 4 * math.pi * b * np.sqrt(ys)
    ) / np.sqrt(ys)
    g = kernels.delta_weight_array(
        q * c / q_cap, (xs[:, None] - ys[None, :] + r_shift) / (level * q_cap**2), bump
    )
    literal = math.fsum((fx[:, None] * g * fy[None, :]).ravel().tolist()) * h * h
    lagged = verify._riemann_reference(
        a, b, c, q, q_cap, level, r_shift, x_scale, y_scale, window, order, bump, n=200
    )
    assert literal != 0.0
    assert abs(lagged - literal) <= 1e-13 * abs(literal), (lagged, literal)


def test_row_reports_arithmetic_error_as_fail(monkeypatch):
    """An ArithmeticError raised in a row body is that row's FAIL, with
    detail 'TypeName: message'; any other exception propagates."""
    monkeypatch.setattr(verify, "REGISTRY", ())

    @verify._check("demo.mismatch", "raises PipelineMismatch")
    def mismatch():
        raise pipeline.PipelineMismatch(1.0, 2.0)

    @verify._check("demo.bug", "raises KeyError")
    def bug():
        raise KeyError("not numerical")

    assert mismatch() == verify.CheckResult(
        "demo.mismatch",
        "raises PipelineMismatch",
        "FAIL",
        "PipelineMismatch: direct 1.0 vs decomposition 2.0: difference 1.0",
    )
    with pytest.raises(KeyError):
        bug()
