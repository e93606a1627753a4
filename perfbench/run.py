"""deltasum benchmark runner.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--size full|tiny]

Runs from the root of a source checkout; the package is imported from
``src/``.  Every pass and every set-up runs in its own fresh interpreter
(``child.py``), started one after another from this process, so no cache
survives from one pass into the next.

--trace 0 repeats passes until ``--seconds`` have gone by (at least one),
tops the set-ups up to three or more, and reports the medians of the
end-to-end metrics.  --trace 1 alternates untraced and traced passes for
``--seconds`` (at least one of each), adds a traced threads=nproc pass
for verify-all, and reports the per-layer metrics.  Either way every output
goes through the oracles in ``oracle.py``; a repeated pass whose output
differs from the first counts as one more failed operation.  Metric names,
units and their order come from ``BENCHMARK.json``.  The last line of
standard output is the JSON result; a record of the run, with provenance,
the output fingerprint and (traced) the spans, goes to ``.perfbench-out/``.
``--workload all`` runs the four workloads one after another.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import summarize  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must end within 180 s
MIN_SETUPS = 3
# set-ups that cost little (an import) are repeated until this much time
# went into them, up to MAX_SETUPS samples, to steady their median
SETUP_TOPUP_S = 2.0
MAX_SETUPS = 11


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


class Child:
    """Runs child.py requests one at a time under one deadline."""

    def __init__(self, workload: str, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.count = 0

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, inputs: dict, mode: str, trace: bool) -> dict | None:
        """The child's report, or None (with the reason on stderr) when it
        failed or ran out of time."""
        self.count += 1
        stem = OUT / f"{self.workload}.{os.getpid()}.{self.count}"
        request, report = stem.with_suffix(".req.json"), stem.with_suffix(".rep.json")
        request.write_text(json.dumps({
            "workload": self.workload, "inputs": inputs, "mode": mode,
            "trace": trace, "report": str(report),
        }))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(request)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.time_left()),
            )
        except subprocess.TimeoutExpired:
            print(f"{self.workload}: {mode} child timed out", file=sys.stderr)
            return None
        finally:
            request.unlink()
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            print(f"{self.workload}: {mode} child exited {proc.returncode}\n{tail}",
                  file=sys.stderr)
            report.unlink(missing_ok=True)
            return None
        data = json.loads(report.read_text())
        report.unlink()
        return data


class Tally:
    """Operations attempted and failed, over every output of the run."""

    def __init__(self, workload: str, inputs: dict):
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self._verdicts: dict[str, tuple[int, int]] = {}

    def add(self, report: dict | None) -> None:
        """Count one child's outputs.  Outputs with a fingerprint already
        judged in this run are byte-identical, so the verdict is reused."""
        if report is None:
            self.attempted += 1
            self.failed += 1
            return
        key = report["fingerprint"] + repr(report["registry"])
        if key not in self._verdicts:
            try:
                self._verdicts[key] = oracle.check(self.workload, report, self.inputs)
            except (ValueError, IndexError, KeyError, TypeError) as exc:
                print(f"{self.workload}: unreadable output: {exc!r}", file=sys.stderr)
                self._verdicts[key] = (1, 1)
        attempted, failed = self._verdicts[key]
        self.attempted += attempted
        self.failed += failed

    def expect_equal(self, a, b, what: str) -> None:
        """Two runs of the same inputs must give the same output."""
        self.attempted += 1
        if a != b:
            print(f"{self.workload}: {what} differ", file=sys.stderr)
            self.failed += 1


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def timed_run(child: Child, inputs: dict, seconds: float, tally: Tally):
    passes, setups = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        rep = child.run(inputs, "pass", trace=False)
        tally.add(rep)
        if rep is not None:
            passes.append(rep)
            setups.append(rep["setup_s"])
        last = time.perf_counter() - t
        if time.perf_counter() - start >= seconds or child.time_left() < 2 * last:
            break
    spent = 0.0
    while (len(setups) < MIN_SETUPS or spent < SETUP_TOPUP_S) \
            and len(setups) < MAX_SETUPS and child.time_left() > 10.0:
        t = time.perf_counter()
        rep = child.run(inputs, "setup", trace=False)
        spent += time.perf_counter() - t
        if rep is None:
            tally.add(None)
        else:
            setups.append(rep["setup_s"])
    for rep in passes[1:]:
        tally.expect_equal(rep["fingerprint"], passes[0]["fingerprint"], "pass fingerprints")
    if not passes:
        return {}, None, None
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }
    detail = {"passes": len(passes), "setups": len(setups),
              "wall_s": [r["wall_s"] for r in passes], "setup_s": setups}
    return metrics, passes[0], detail


def traced_run(child: Child, workload: str, inputs: dict, seconds: float, tally: Tally):
    """Untraced and traced passes in turn until ``seconds`` have gone by;
    layers are read from the first traced pass, the overhead from the
    medians."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        for reports, trace in ((untraced, False), (traced, True)):
            rep = child.run(inputs, "pass", trace=trace)
            tally.add(rep)
            if rep is not None:
                reports.append(rep)
        last = time.perf_counter() - t
        if time.perf_counter() - start >= seconds or child.time_left() < 2 * last:
            break
    threaded = None
    if workload == "verify-all":
        threaded = child.run(dict(inputs, threads=inputs["nproc"]), "pass", trace=True)
        tally.add(threaded)
        if threaded is None:
            return {}, untraced[0] if untraced else None, None
    if not untraced or not traced:
        return {}, untraced[0] if untraced else None, None
    for rep in untraced[1:] + traced + ([threaded] if threaded else []):
        # for verify-all this also holds the threads=nproc rows to the threads=1 rows
        tally.expect_equal(rep["fingerprint"], untraced[0]["fingerprint"], "pass outputs")
    untraced_s = statistics.median(r["wall_s"] for r in untraced)
    traced_s = statistics.median(r["wall_s"] for r in traced)
    metrics = layer_metrics(traced[0], threaded)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    (OUT / f"{workload}.spans.json").write_text(json.dumps(
        {"traced": traced[0]["trace"], "threaded": threaded and threaded["trace"]}))
    return metrics, untraced[0], {"untraced_wall_s": [r["wall_s"] for r in untraced],
                                   "traced_wall_s": [r["wall_s"] for r in traced]}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": [], "attr_durs": []}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


@functools.lru_cache(maxsize=None)
def _totient(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def layer_metrics(traced: dict, threaded: dict | None) -> dict:
    """Per-layer metrics from the traced pass.  verify-all's passes run on
    one thread, so its spans time no waits for the interpreter lock; its
    traced threads=nproc pass (``threaded``) gives only the speed-up."""
    summ = summarize(traced["trace"])

    def get(name):
        return summ.get(name, _EMPTY)

    m: dict[str, float] = {}

    def timing(name, *keys):
        entry = get(name)
        for key in keys:
            m[f"{name}.{key}"] = entry[key]
        return entry

    kr = timing("backend.kloosterman_raw", "calls", "s")
    terms = sum(c - 1 for c in kr["attrs"])
    m["backend.kloosterman_raw.terms"] = terms
    m["backend.kloosterman_raw.terms_per_s"] = _div(terms, kr["s"])
    m["backend.kloosterman_raw.useful_frac"] = _div(
        sum(_totient(c) for c in kr["attrs"] if c > 1), terms)

    ks = timing("expsums.kloosterman", "calls", "self_s")
    m["expsums.kloosterman.crt_calls"] = sum(1 for crt, _ in ks["attrs"] if crt)
    m["expsums.kloosterman.weil_ratio_max"] = max((r for _, r in ks["attrs"]), default=0.0)

    fz = timing("arith.factorize", "calls", "s")
    m["arith.factorize.us_per_call"] = 1e6 * _div(fz["s"], fz["calls"])

    for name in ("characters.enumerate_characters", "characters.gauss_sum",
                 "kernels.delta_decompose", "kernels.delta_decompose_lowered",
                 "kernels.calibrate", "pipeline.shifted_sum_direct"):
        timing(name, "s")

    eta = timing("modforms.eta_product_series", "s")
    coeffs = sum(eta["attrs"])
    m["modforms.eta_product_series.coeffs"] = coeffs
    m["modforms.eta_product_series.coeffs_per_s"] = _div(coeffs, eta["s"])

    bj = timing("kernels.bessel_j_array", "calls", "s")
    elements = sum(n for n, _ in bj["attrs"])
    m["kernels.bessel_j_array.elements"] = elements
    m["kernels.bessel_j_array.elements_per_s"] = _div(elements, bj["s"])
    m["kernels.bessel_j_array.asymptotic_frac"] = _div(sum(k for _, k in bj["attrs"]), elements)

    dw = timing("kernels.delta_weight_array", "calls", "s")
    elements = sum(n for n, _ in dw["attrs"])
    m["kernels.delta_weight_array.elements"] = elements
    m["kernels.delta_weight_array.elements_per_s"] = _div(elements, dw["s"])
    m["kernels.delta_weight_array.nonzero_frac"] = _div(sum(k for _, k in dw["attrs"]), elements)

    dbi = timing("kernels.double_bessel_integral", "calls", "s")
    m["kernels.double_bessel_integral.panels"] = sum(dbi["attrs"])

    ss = timing("pipeline.shifted_sum_delta", "calls", "s", "self_s")
    m["pipeline.shifted_sum_delta.identity_margin"] = max(
        (margin for _, margin in ss["attrs"]), default=0.0)
    per_x: dict[float, float] = {}
    for (x, _), dur in zip(ss["attrs"], ss["attr_durs"]):
        per_x[x] = per_x.get(x, 0.0) + dur
    for x in workloads.SIZES["full"]["ladder_x"]:
        m[f"pipeline.shifted_sum_delta.X{x:g}.s"] = per_x.get(x, 0.0)
    # least-squares slope of log time against log X over the ladder
    pts = [(math.log(x), math.log(t)) for x, t in per_x.items() if t > 0]
    m["pipeline.shifted_sum_delta.x_exponent"] = (
        statistics.linear_regression(*zip(*pts)).slope if len(pts) > 1 else 0.0)

    vv = timing("pipeline.verify_voronoi", "calls", "s", "self_s")
    m["pipeline.verify_voronoi.dual_terms"] = sum(n for n, _ in vv["attrs"])
    m["pipeline.verify_voronoi.eta_margin"] = max((e for _, e in vv["attrs"]), default=0.0)

    for key, (hits, misses) in traced["caches"].items():
        m[f"{key}.hit_ratio"] = _div(hits, hits + misses)

    timing("cli.main", "self_s")

    if threaded is not None:
        for name, entry in summ.items():
            if name.startswith("verify.") and name != "verify.run_all":
                m[f"{name}.s"] = entry["s"]
        serial_s = get("verify.run_all")["s"]
        threaded_s = summarize(threaded["trace"]).get("verify.run_all", _EMPTY)["s"]
        m["verify.run_all.serial_s"] = serial_s
        m["verify.run_all.threads_speedup"] = _div(serial_s, threaded_s)
    return m


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    pkg = ROOT / "src" / "deltasum"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".pyx")):
        digest.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(args, bench: dict, nproc: int) -> None:
    workload = args.workload
    deadline = time.perf_counter() + RUN_LIMIT_S
    inputs = workloads.make_inputs(workload, args.seed, args.size, nproc)
    child = Child(workload, deadline)
    tally = Tally(workload, inputs)
    if args.trace:
        observed, first, detail = traced_run(child, workload, inputs, args.seconds, tally)
        listed = bench["per_layer"]
    else:
        observed, first, detail = timed_run(child, inputs, args.seconds, tally)
        listed = bench["end_to_end"]
    complete = bool(observed)
    metrics = {e["name"]: {"value": observed.get(e["name"], 0.0), "unit": e["unit"]}
               for e in listed}
    provenance = {
        "workload": workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "nproc": nproc,
        "git_commit": git_commit(), "source_sha256": source_sha256(),
        **(first["provenance"] if first else {}),
    }
    fingerprint = first["fingerprint"] if first else None
    correct = complete and tally.failed == 0
    record = {
        "provenance": provenance, "fingerprint": fingerprint, "detail": detail,
        "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics,
    }
    suffix = "trace" if args.trace else "e2e"
    (OUT / f"{workload}.seed{args.seed}.{suffix}.json").write_text(json.dumps(record, indent=1))

    print(f"# {workload} seed={args.seed} size={args.size} trace={args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:48s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'fail_frac':48s} {_div(tally.failed, tally.attempted):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    if args.trace and workload == "verify-all" and complete:
        checks = sum(v for k, v in observed.items()
                     if k.startswith("verify.") and not k.startswith("verify.run_all."))
        print(f"  verify checks sum to {100 * _div(checks, observed['verify.run_all.serial_s']):.2f}"
              f"% of verify.run_all.serial_s")
    print(f"  provenance {json.dumps(provenance, sort_keys=True)}")
    print(f"  fingerprint sha256:{fingerprint}")
    result = {"correct": correct, "attempted": max(tally.attempted, 1),
              "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "deltasum" / "__init__.py").is_file():
        print(f"error: no deltasum sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        run_workload(argparse.Namespace(**{**vars(args), "workload": name}), bench, nproc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
