"""Planted faults: each turns its verify-all row to FAIL, reported as a row
and not raised."""

import dataclasses

import numpy as np

from deltasum import characters, kernels, modforms, pipeline, verify


def test_shifted_identity_fails_on_gamma_sum_fault(monkeypatch):
    # the q = 2 gamma-sums x (1 + 1e-5): shifted_sum_delta raises
    # PipelineMismatch inside the row, which the row reports as its FAIL
    strata = pipeline._gamma_strata

    def planted(w, u_lo, q, level):
        sums = strata(w, u_lo, q, level)
        return tuple(s * (1 + 1e-5) for s in sums) if q == 2 else sums

    monkeypatch.setattr(pipeline, "_gamma_strata", planted)
    row = verify.check_shifted_pipeline()
    assert row.status == "FAIL" and row.detail.startswith("PipelineMismatch: direct ")


def test_hecke_fails_on_one_coefficient(monkeypatch):
    # a(2) + 1 for Delta_1_12: a(2)^2 = a(4) + 2^11 no longer holds
    builtin = modforms.builtin_form

    def planted(form_id, bound=3000):
        f = builtin(form_id, bound)
        if form_id != "Delta_1_12":
            return f
        coeffs = list(f.coefficients)
        coeffs[2] += 1
        return dataclasses.replace(f, coefficients=tuple(coeffs))

    monkeypatch.setattr(modforms, "builtin_form", planted)
    row = verify.check_hecke_exact()
    assert row.status == "FAIL" and row.detail == "Delta_1_12 at (m,n)=(2,2)"


def test_phi_star_fails_on_one_conductor(monkeypatch):
    # one character mod 12 of conductor 4 relabelled as primitive
    group = characters._group(12)
    planted = group.conductors.copy()
    planted[np.flatnonzero(planted == 4)[0]] = 12
    monkeypatch.setitem(group.__dict__, "conductors", planted)
    row = verify.check_phi_star_oracle()
    assert row.status == "FAIL" and row.detail == "mismatch at M=12: 2 vs 1"


def test_double_integral_fails_on_relative_fault(monkeypatch):
    # 3e-11 relative on the value, the level this row is stated to catch
    integral = kernels.double_bessel_integral

    def planted(*args):
        res = integral(*args)
        return dataclasses.replace(res, value=res.value * (1 + 3e-11))

    monkeypatch.setattr(kernels, "double_bessel_integral", planted)
    row = verify.check_double_integral()
    assert row.status == "FAIL" and row.detail.startswith("worst_diff_over_estimate ")
