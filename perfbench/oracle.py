"""Independent checks of each workload's outputs, run by run.py in the
parent process.

Each ``check_*`` returns (attempted, failed).  Nothing here imports
deltasum: the Kloosterman oracle recomputes every sum as a numpy phase sum
with its own modular inverses and its own Weil bound.
"""

from __future__ import annotations

import csv
import math

import numpy as np

KLOOSTERMAN_TOL = 1e-9
VORONOI_ETA_TOL = 1e-6
VORONOI_RESIDUAL_TOL = 1e-5
SHIFTED_IDENTITY_REL_TOL = 1e-6
SHIFTED_IDENTITY_ABS_TOL = 1e-10
SHIFTED_PARTITION_REL_TOL = 1e-8


def csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    """(column names, rows) of a deltasum CSV report."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# deltasum "):
        return [], []
    table = list(csv.reader(lines[1:]))
    return (table[0], table[1:]) if table else ([], [])


def _powmod(base: np.ndarray, exponent: int, modulus: int) -> np.ndarray:
    result = np.ones_like(base)
    base = base % modulus
    while exponent:
        if exponent & 1:
            result = result * base % modulus
        base = base * base % modulus
        exponent >>= 1
    return result


def kloosterman_sum(a: int, b: int, c: int) -> float:
    """Real part of sum over x mod c, gcd(x, c) = 1, of e((a x + b/x)/c);
    inverses by Euler's theorem, x^(phi(c) - 1)."""
    if c == 1:
        return 1.0
    xs = np.arange(1, c, dtype=np.int64)
    xs = xs[np.gcd(xs, c) == 1]
    inv = _powmod(xs, xs.size - 1, c)
    if np.any(xs * inv % c != 1):
        raise AssertionError(f"oracle inverses wrong mod {c}")
    t = ((a % c) * xs + (b % c) * inv) % c
    return float(np.cos((2.0 * math.pi / c) * t).sum())


def weil_bound(a: int, b: int, c: int) -> float:
    divisors = np.arange(1, c + 1, dtype=np.int64)
    tau = int(np.count_nonzero(c % divisors == 0))
    return tau * math.sqrt(math.gcd(math.gcd(a, b), c)) * math.sqrt(c)


def check_kloosterman(out: dict, inputs: dict) -> tuple[int, int]:
    """Every modulus 1..cmax once; each value within 1e-9 of the oracle and
    within the Weil bound."""
    cmax = inputs["cmax"]
    columns, rows = csv_rows(out["csv"])
    if out["status"] != 0 or columns[:4] != ["a", "b", "c", "value"]:
        return cmax, cmax
    failed = abs(len(rows) - cmax)
    for expected_c, row in zip(range(1, cmax + 1), rows):
        a, b, c = int(row[0]), int(row[1]), int(row[2])
        value = float(row[3])
        bound = weil_bound(a, b, c)
        ok = (
            c == expected_c
            and abs(value - kloosterman_sum(a, b, c)) <= KLOOSTERMAN_TOL
            and abs(value) <= bound + KLOOSTERMAN_TOL
            and abs(float(row[4]) - bound) <= KLOOSTERMAN_TOL * bound
        )
        failed += not ok
    return cmax, failed


def check_verify_all(out: dict, registry: list[str]) -> tuple[int, int]:
    """A FAIL row, a nonzero exit, or row names other than the registry's."""
    columns, rows = csv_rows(out["csv"])
    names = [row[0] for row in rows]
    failed = sum(1 for row in rows if len(row) != 4 or row[2] == "FAIL")
    failed += sum(1 for got, want in zip(names, registry) if got != want)
    failed += abs(len(names) - len(registry))
    if columns != ["check", "label", "status", "detail"]:
        failed += 1
    if out["status"] != 0 and failed == 0:
        failed = 1
    return max(len(registry), 1), failed


def check_voronoi(outputs: list[dict]) -> tuple[int, int]:
    """||eta| - 1| <= 1e-6 (from eta itself) and residual <= 1e-5."""
    failed = 0
    for rec in outputs:
        ok = (
            "error" not in rec
            and abs(math.hypot(*rec["eta"]) - 1.0) <= VORONOI_ETA_TOL
            and rec["residual"] <= VORONOI_RESIDUAL_TOL
            and rec["dual_terms"] > 0
        )
        failed += not ok
    return len(outputs), failed


def check_shifted(outputs: list[dict]) -> tuple[int, int]:
    """No exception, the direct and decomposed values agree, and the three
    strata add up to the decomposed value."""
    failed = 0
    for rec in outputs:
        if "error" in rec:
            failed += 1
            continue
        direct, delta = rec["direct"], rec["delta"]
        ok = (
            all(math.isfinite(v) for v in (direct, delta, *rec["strata"]))
            and abs(direct - delta)
            <= max(SHIFTED_IDENTITY_REL_TOL * abs(direct), SHIFTED_IDENTITY_ABS_TOL)
            and abs(math.fsum(rec["strata"]) - delta)
            <= max(SHIFTED_PARTITION_REL_TOL * abs(delta), 1e-12)
        )
        failed += not ok
    return len(outputs), failed


def check(workload: str, report: dict, inputs: dict) -> tuple[int, int]:
    outputs = report["outputs"]
    if workload == "verify-all":
        return check_verify_all(outputs[0], report["registry"])
    if workload == "kloosterman-distinct":
        return check_kloosterman(outputs[0], inputs)
    if workload == "voronoi":
        return check_voronoi(outputs)
    return check_shifted(outputs)
