"""Self-test of the benchmark: every workload at tiny size, untraced and
traced, in well under two minutes.

Usage: python3 perfbench/selftest.py

For each run it checks that the last line of standard output is the result
object, that the result carries exactly the metrics BENCHMARK.json lists
with their units, that no operation failed (fail_frac is 0), and that the
traced run saw the layers its workload drives.  It also checks that the
benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# per workload, traced metrics that must be nonzero even at tiny size
MUST_SEE = {
    "verify-all": (
        "arith.factorize.calls", "characters.enumerate_characters.s",
        "characters.gauss_sum.s", "expsums.kloosterman.crt_calls",
        "kernels.double_bessel_integral.panels", "kernels.delta_decompose_lowered.s",
        "kernels.calibrate.s", "verify.run_all.serial_s",
        "verify.run_all.threads_speedup",
    ),
    "kloosterman-distinct": (
        "backend.kloosterman_raw.terms", "backend.kloosterman_raw.useful_frac",
        "expsums.kloosterman.calls", "expsums.kloosterman.weil_ratio_max",
        "cli.main.self_s",
    ),
    "voronoi": (
        "kernels.bessel_j_array.elements", "kernels.bessel_j_array.asymptotic_frac",
        "pipeline.verify_voronoi.dual_terms", "pipeline.verify_voronoi.self_s",
        "modforms.eta_product_series.coeffs",
    ),
    "shifted-ladder": (
        "kernels.delta_weight_array.elements", "pipeline.shifted_sum_delta.X250.s",
        "pipeline.shifted_sum_delta.X500.s", "pipeline.shifted_sum_delta.x_exponent",
        "pipeline.shifted_sum_direct.s", "modforms.eta_product_series.coeffs",
    ),
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(workload: str, trace: int, proc, listed: list[dict]) -> list[str]:
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
    metrics = result["metrics"]
    if list(metrics) != [e["name"] for e in listed]:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for entry in listed:
        got = metrics.get(entry["name"], {})
        if got.get("unit") != entry["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {entry['name']} printed as {got}")
    if not trace:
        problems += [f"{where}: {name} is not positive"
                     for name, v in metrics.items() if not v["value"] > 0]
        return problems
    problems += [f"{where}: {name} is 0"
                 for name in MUST_SEE[workload] if not metrics[name]["value"]]
    if workload == "verify-all":
        checks = sum(v["value"] for k, v in metrics.items()
                     if k.startswith("verify.") and not k.startswith("verify.run_all."))
        serial = metrics["verify.run_all.serial_s"]["value"]
        if not abs(checks - serial) <= 0.05 * serial:
            problems.append(f"{where}: checks sum to {checks} s of serial {serial} s")
    return problems


def check_bare_directory() -> list[str]:
    """Without the package sources the benchmark must fail, printing no result."""
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, workloads.WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            listed = bench["per_layer" if trace else "end_to_end"]
            found = check_result(workload, trace, run(ROOT, workload, trace), listed)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
