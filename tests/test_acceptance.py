"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria with stated runtime budgets assert them; the two monitored
regressions report their fitted values without gating."""

import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import pytest

from deltasum import expsums, kernels, modforms, pipeline, verify


def _report(number: int, name: str, detail: str = ""):
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): PASS{suffix}")


def test_criterion_1_delta_exactness():
    start = time.perf_counter()
    worst = 0.0
    for q_scale in (6.0, 10.0, 25.0):
        for level in (1, 2, 3, 5, 11):
            for sharpness in (0.25, 0.5, 1.0):
                scheme = kernels.calibrate(
                    kernels.DeltaScheme(
                        q_scale, level, pipeline.default_delta_bump(sharpness)
                    )
                )
                assert 0.9 <= scheme.c_q <= 1.1, (q_scale, level, sharpness)
                evaluate = (
                    kernels.delta_decompose
                    if level == 1
                    else kernels.delta_decompose_lowered
                )
                for n in range(-100, 101):
                    value = evaluate(n, scheme)
                    worst = max(worst, abs(value - (1.0 if n == 0 else 0.0)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 60.0
    _report(1, "delta exactness", f"worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_conductor_lowering_congruence():
    worst_b = 0.0
    worst_val = 0.0
    for level in (2, 3, 5, 11):
        scheme = kernels.calibrate(
            kernels.DeltaScheme(10.0, level, pipeline.default_delta_bump())
        )
        for n in range(1, 101):
            if n % level:
                worst_b = max(worst_b, abs(kernels.congruence_average(n, level)))
            else:
                worst_val = max(
                    worst_val, abs(kernels.delta_decompose_lowered(n, scheme))
                )
    assert worst_b <= 1e-12
    assert worst_val <= 1e-8
    _report(
        2,
        "conductor-lowering congruence",
        f"b-average {worst_b:.2e}, multiples {worst_val:.2e}",
    )


def test_criterion_3_pipeline_identity():
    start = time.perf_counter()
    specs = verify.acceptance_specs()
    assert len(specs) >= 6
    assert {s.f1.form_id for s in specs} == set(modforms.BUILTIN_FORM_IDS)
    row = verify.check_shifted_pipeline()
    elapsed = time.perf_counter() - start
    assert row.status == "PASS", row.detail
    assert elapsed < 300.0
    _report(3, "pipeline identity", f"{len(specs)} specs, {row.detail}, {elapsed:.1f}s")


def test_criterion_4_kloosterman_collapse_and_weil():
    import random

    rng = random.Random(2024)
    worst = 0.0
    for stratum in (
        kernels.Stratum.COPRIME,
        kernels.Stratum.GAMMA,
        kernels.Stratum.MODULUS,
    ):
        done = 0
        while done < 100:
            level = rng.choice((2, 3, 5, 11))
            q = rng.randrange(1, 13)
            if stratum != kernels.Stratum.MODULUS and gcd(q, level) != 1:
                continue
            r = rng.choice((1, -1, 2, -2))
            if gcd(r, level) != 1:
                continue
            direct, closed = pipeline.kloosterman_collapse(
                stratum, r, rng.choice((1, 2, 3, 5, 6)), rng.randrange(1, 60),
                rng.randrange(1, 60), level, q,
            )
            worst = max(worst, abs(direct - closed))
            done += 1
    assert worst <= 1e-8
    for c in range(1, 2001):
        for _ in range(20):
            a = rng.randrange(-(10**6), 10**6)
            b = rng.randrange(-(10**6), 10**6)
            v = expsums.kloosterman(a, b, c)
            assert abs(v.value) <= v.weil_bound + 1e-9
    _report(4, "Kloosterman collapse and Weil sweep", f"worst collapse {worst:.2e}")


def test_criterion_5_voronoi_phase():
    row = verify.check_voronoi()
    assert row.status == "PASS", row.detail
    _report(5, "Voronoi unit phase", row.detail)


def test_criterion_6_second_moment_identities(moment_window):
    d = modforms.builtin_form("Delta_1_12")
    for modulus in (3, 5, 15, 21):
        lhs, rhs = pipeline.gauss_square_opening(d, modulus, 30.0, moment_window)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1e-12), modulus
    split = pipeline.diagonal_split(d, 3, 30.0, moment_window)
    _, aggregate = pipeline.residue_class_average(d, 3, 30.0, moment_window)
    recon = 3 * (split.diagonal + split.off_diagonal)
    assert abs(aggregate - recon) <= 1e-8 * max(abs(aggregate), 1e-10)
    assert split.diagonal >= 0.0
    # diagonal reference loop
    direct = 0.0
    for n in range(1, 200):
        hv = moment_window(n / 30.0)
        if hv:
            direct += d.lam(n) ** 2 / n * hv * hv
    assert split.diagonal == pytest.approx(direct, rel=1e-10)
    _report(6, "second-moment identities")


def test_criterion_7_exponent_arithmetic():
    assert pipeline.exponent_budget(Fraction(2, 5)).delta == 0
    assert pipeline.exponent_budget(0).delta == Fraction(1, 10)
    assert pipeline.exponent_budget(Fraction(2, 7)).delta == Fraction(1, 40)
    for num in range(0, 80):
        eta = Fraction(num, 100)
        budget = pipeline.exponent_budget(eta)
        assert budget.subconvex == (0 < eta < Fraction(2, 5))
        assert budget.classical_threshold == Fraction(2, 7)
    _report(7, "exponent arithmetic")


def test_criterion_8_hecke_deligne():
    rows = (verify.check_deligne_bound(), verify.check_hecke_exact())
    for row in rows:
        assert row.status == "PASS", row.detail
    _report(8, "Hecke and coefficient-bound suite", " | ".join(r.detail for r in rows))


def test_criterion_9_monitored_regressions():
    slope_row = verify.check_moment_slope()
    ratio_row = verify.check_shifted_ratio()
    assert slope_row.status == "MONITOR" and "slope=" in slope_row.detail
    assert ratio_row.status == "MONITOR" and "fitted constant" in ratio_row.detail
    _report(
        9,
        "monitored regressions (non-blocking)",
        f"{slope_row.detail} | {ratio_row.detail}",
    )


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for name, threads in (("a.csv", 1), ("b.csv", 1), ("c.csv", 8)):
        path = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "deltasum.cli",
                "verify-all",
                "--threads",
                str(threads),
                "--out",
                str(path),
            ],
            capture_output=True,
            text=True,
            timeout=1200,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1], "repeated runs differ"
    assert outputs[0] == outputs[2], "thread counts changed the output"
    table = outputs[0].decode()
    assert "FAIL" not in table
    _report(10, "verify-all determinism", "3 runs byte-identical")
