"""The four workloads: inputs drawn from the seed, the set-up that builds the
fixed inputs once, and one pass through the public API or ``cli.main``.

``make_inputs`` runs in run.py's parent process and needs no ``deltasum``;
``import_program``, ``build_fixed`` and ``run_pass`` run in a fresh child
interpreter.  Each pass returns one entry per operation; the oracles in
``oracle.py`` judge them afterwards, so no checking happens inside the timed
region.
"""

from __future__ import annotations

import io
import math
import random
from contextlib import redirect_stdout

# BENCHMARK.json gates all but kloosterman-distinct: its pure-Python kernel
# loop follows the host's speed most closely, and on a 2-vCPU host its
# 10-seed spread (0.24-0.31 of the median) did not fit the largest bound.
# It stays runnable, traced and self-tested for measuring the kernel alone.
WORKLOADS = ("verify-all", "kloosterman-distinct", "voronoi", "shifted-ladder")

FORM_LEVELS = {"Delta_1_12": 1, "E8_2_8": 2, "E6_3_6": 3, "E4_5_4": 5, "E2_11_2": 11}

# Registry checks the verify-all workload leaves out: together they take
# about 58 of the suite's 80 s on two cores, which does not fit a run.  The
# voronoi workload measures their Voronoi and J-Bessel layers instead.
VERIFY_SKIP = ("expsums.weil-sweep", "pipeline.voronoi", "pipeline.voronoi-ramified")

SIZES = {
    "full": {
        "verify_only": None,
        "kloosterman_cmax": 4500,
        "voronoi_q": (1, 2, 3),
        # 1.4x or more above the dual terms the q <= 3 solves need
        "voronoi_bounds": {
            "Delta_1_12": 2000, "E8_2_8": 2000, "E6_3_6": 2000,
            "E4_5_4": 3000, "E2_11_2": 5000,
        },
        "ladder_x": (250.0, 500.0, 1000.0, 2000.0),
        "ladder_forms": tuple(FORM_LEVELS),
        "ladder_bound": 5000,
    },
    "tiny": {
        "verify_only": (
            "arith.phi-star", "characters.gauss-modulus", "expsums.symmetry",
            "expsums.crt-flag", "modforms.eta-determinism", "kernels.delta-lowered",
            "kernels.double-integral", "pipeline.shifted-identity",
        ),
        "kloosterman_cmax": 200,
        "voronoi_q": (1, 2),
        "voronoi_bounds": {"E2_11_2": 2500},
        "ladder_x": (250.0, 500.0),
        "ladder_forms": ("E2_11_2",),
        "ladder_bound": 1250,
    },
}

VORONOI_WINDOW = (40.0, 200.0)  # the CLI's default test-function support


def make_inputs(workload: str, seed: int, size: str, nproc: int) -> dict:
    """Everything a pass needs, drawn from ``seed``; JSON-serialisable."""
    cfg = SIZES[size]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-all":
        # timed passes run the registry on one thread: at two threads on a
        # 2-vCPU host the pass also timed handing the interpreter lock
        # between vCPUs, and over eight interleaved passes of each its
        # IQR/median was 0.25 against 0.07 at one thread.  The traced run
        # adds a threads=nproc pass for verify.run_all.threads_speedup.
        return {
            "threads": 1,
            "nproc": nproc,
            "skip": list(VERIFY_SKIP),
            "only": list(cfg["verify_only"] or ()),
        }
    if workload == "kloosterman-distinct":
        cmax = cfg["kloosterman_cmax"]
        sampler_seed = rng.randrange(1, 2**31)
        return {
            "cmax": cmax,
            "argv": ["kloosterman", "--cmax", str(cmax), "--samples", "1",
                     "--seed", str(sampler_seed)],
        }
    if workload == "voronoi":
        bounds = cfg["voronoi_bounds"]
        solves = []
        for form, bound in bounds.items():
            for q in cfg["voronoi_q"]:
                if math.gcd(q, FORM_LEVELS[form]) != 1:
                    continue
                units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
                solves.append([form, q, rng.choice(units)])
        return {"bounds": bounds, "solves": solves}
    if workload == "shifted-ladder":
        specs = []
        for form in cfg["ladder_forms"]:
            level = FORM_LEVELS[form]
            r = rng.choice([r for r in (1, -1, 2, -2) if math.gcd(r, level) == 1])
            m = rng.choice([m for m in (2, 3, 5, 7) if math.gcd(m, level) == 1])
            specs.extend([form, m, r, x] for x in cfg["ladder_x"])
        return {"bound": cfg["ladder_bound"], "specs": specs}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------


def import_program():
    """Import the package the way the CLI does (this pulls in every module)."""
    import deltasum.cli

    return deltasum


def build_fixed(workload: str, inputs: dict) -> dict:
    """The fixed inputs built once per interpreter: newform coefficient
    tables, and the registry selection for verify-all."""
    from deltasum import modforms, verify

    if workload == "verify-all":
        only = set(inputs["only"])
        keep = tuple(
            (name, fn) for name, fn in verify.REGISTRY
            if (name in only if only else name not in inputs["skip"])
        )
        verify.REGISTRY = keep
        return {"registry": [name for name, _ in keep]}
    if workload == "voronoi":
        return {"forms": {f: modforms.builtin_form(f, bound=b)
                          for f, b in inputs["bounds"].items()}}
    if workload == "shifted-ladder":
        forms = {spec[0] for spec in inputs["specs"]}
        return {"forms": {f: modforms.builtin_form(f, bound=inputs["bound"])
                          for f in sorted(forms)}}
    return {}


def _cli(argv: list[str]) -> dict:
    from deltasum import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli.main(argv)
    return {"status": status, "csv": buf.getvalue()}


def run_pass(workload: str, inputs: dict, fixed: dict) -> list:
    """One pass.  Returns the outputs, one entry per operation for the API
    workloads; an operation that raises is recorded as its error."""
    if workload == "verify-all":
        return [_cli(["verify-all", "--threads", str(inputs["threads"])])]
    if workload == "kloosterman-distinct":
        return [_cli(inputs["argv"])]
    from deltasum import kernels, pipeline

    out = []
    if workload == "voronoi":
        h = kernels.SmoothBump(*VORONOI_WINDOW, sharpness=1.0, normalization="peak")
        for form, q, a in inputs["solves"]:
            try:
                rep = pipeline.verify_voronoi(fixed["forms"][form], a, q, h)
            except Exception as exc:  # every failure is counted, not fatal
                out.append({"error": f"{type(exc).__name__}: {exc}"})
                continue
            out.append({
                "eta": [rep.eta.real, rep.eta.imag],
                "eta_abs_error": rep.eta_abs_error,
                "residual": rep.residual,
                "dual_terms": rep.dual_terms,
            })
        return out
    window = pipeline.default_window()
    for form, m, r, x in inputs["specs"]:
        f = fixed["forms"][form]
        try:
            spec = pipeline.ShiftedSumSpec(
                f1=f, f2=f, r=r, shift_modulus=m, x_scale=x, y_scale=x, window=window
            )
            rep = pipeline.shifted_sum_delta(spec)
        except Exception as exc:  # PipelineMismatch, partition errors, anything
            out.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        out.append({
            "direct": rep.direct_value,
            "delta": rep.delta_value,
            "strata": [rep.stratum_coprime, rep.stratum_gamma, rep.stratum_modulus],
            "identity_residual": rep.identity_residual,
            "partition_residual": rep.partition_residual,
        })
    return out
