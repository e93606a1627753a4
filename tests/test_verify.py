"""The verify-all rows: a declared check returns its full row, and a NaN
among a gated row's values fails it."""

import math

from deltasum import expsums, modforms, pipeline, verify


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


def test_moment_slope_row_shows_nan(monkeypatch):
    strength = verify._shift_strength
    monkeypatch.setattr(
        verify,
        "_shift_strength",
        lambda f, modulus, x, h: math.nan if modulus == 13 else strength(f, modulus, x, h),
    )
    row = verify.check_moment_slope()
    assert row.status == "MONITOR" and "Delta_1_12: slope=nan constant=nan" in row.detail
