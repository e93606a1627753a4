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
