"""The verify-all registration: a declared check returns its full row."""

from deltasum import modforms, verify


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
