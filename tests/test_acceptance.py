"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria with stated runtime budgets assert them; the two monitored
regressions report their fitted values without gating."""

import subprocess
import sys
import time

import pytest

from deltasum import modforms, verify


def _report(number: int, name: str, detail: str = ""):
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): PASS{suffix}")


@pytest.fixture(scope="module")
def delta_rows():
    """Criterion 1's rows, plain and lowered, and the seconds they took;
    criterion 2 asserts on the same lowered row."""
    start = time.perf_counter()
    rows = (verify.check_delta_plain(), verify.check_delta_lowered())
    return rows, time.perf_counter() - start


def test_criterion_1_delta_exactness(delta_rows):
    rows, elapsed = delta_rows
    for row in rows:
        assert row.status == "PASS", row.detail
    assert elapsed < 60.0
    _report(
        1, "delta exactness", " | ".join(r.detail for r in rows) + f", {elapsed:.1f}s"
    )


def test_criterion_2_conductor_lowering_congruence(delta_rows):
    row = delta_rows[0][1]
    assert row.status == "PASS", row.detail
    _report(2, "conductor-lowering congruence", row.detail)


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
    rows = (verify.check_kloosterman_collapse(), verify.check_weil_sweep())
    for row in rows:
        assert row.status == "PASS", row.detail
    _report(4, "Kloosterman collapse and Weil sweep", " | ".join(r.detail for r in rows))


def test_criterion_5_voronoi_phase():
    row = verify.check_voronoi()
    assert row.status == "PASS", row.detail
    _report(5, "Voronoi unit phase", row.detail)


def test_criterion_6_second_moment_identities():
    row = verify.check_moment_identities()
    assert row.status == "PASS", row.detail
    _report(6, "second-moment identities", row.detail)


def test_criterion_7_exponent_arithmetic():
    row = verify.check_exponents()
    assert row.status == "PASS", row.detail
    _report(7, "exponent arithmetic", row.detail)


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
