"""Batch front-end.

Each subcommand runs one verification surface and emits a deterministic CSV
table: byte-identical across repeated runs and across worker counts. The
first line of every file is a comment naming the identity or check the
table instantiates. Numeric cells use the shortest round-trip
representation; exact rationals stay as p/q strings.

Each subcommand is declared once, by ``@_command(name, title, columns,
*params)`` on the function that computes its rows: the header line, the
column row, the command-line options, the accepted configuration keys and
the dispatch all come from that declaration. A table with a ``status``
column exits 1 when any row reads FAIL.

Configuration: a flat key = value file (one pair per line, '#' comments)
selected with --config; command-line flags override file values; unknown
keys are rejected. Flags and file values are both kept as strings and each
value is parsed once, after the merge, so a bad value gives the same
one-line error from either source. The DELTASUM_OUT_DIR environment
variable redirects relative output paths.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from . import modforms, pipeline, verify
from .characters import enumerate_characters
from .expsums import kloosterman
from .kernels import (
    DeltaScheme,
    SmoothBump,
    _q_max,
    delta_decompose,
    delta_decompose_lowered,
)


class ConfigError(ValueError):
    """Malformed configuration or parameter."""


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational p/q value: {text!r}") from exc


def _parse_form(text: str) -> str:
    if text not in modforms.BUILTIN_FORM_IDS:
        raise ConfigError(
            f"unknown form {text!r}; choose from {', '.join(modforms.BUILTIN_FORM_IDS)}"
        )
    return text


@dataclass(frozen=True)
class Param:
    name: str
    parse: Callable[[str], object]
    default: object
    help: str
    required: bool = False


@dataclass(frozen=True)
class Command:
    name: str
    title: str
    columns: tuple[str, ...]
    params: tuple[Param, ...]
    rows: Callable[[dict], list[tuple]]

    @property
    def header(self) -> str:
        return f"{self.title} (columns: {','.join(self.columns)})"


COMMANDS: dict[str, Command] = {}


def _command(name: str, title: str, columns: str, *params: Param):
    """Declare subcommand ``name``: its rows come from the decorated
    function, called with the resolved parameter dict."""

    def register(fn):
        COMMANDS[name] = Command(name, title, tuple(columns.split(",")), params, fn)
        return fn

    return register


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv_quote(text: str) -> str:
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_csv(command: Command, rows: list[tuple]) -> str:
    lines = [f"# deltasum {command.name}: {command.header}", ",".join(command.columns)]
    for row in rows:
        lines.append(",".join(_csv_quote(_fmt_cell(v)) for v in row))
    return "\n".join(lines) + "\n"


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _resolve_params(command: Command, args: argparse.Namespace) -> dict[str, object]:
    """Config-file values overridden by flags, each raw string parsed once
    by its Param, so a bad value gives the same error from either source."""
    schema = {p.name: p for p in command.params}
    raw_values: dict[str, str] = {}
    if args.config:
        for key, raw in _read_config(args.config).items():
            if key == "out":
                if args.out is None:
                    args.out = raw
                continue
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} for command {command.name!r}")
            raw_values[key] = raw
    for name in schema:
        if getattr(args, name, None) is not None:
            raw_values[name] = getattr(args, name)
    values: dict[str, object] = {}
    for name, param in schema.items():
        if name in raw_values:
            values[name] = param.parse(raw_values[name])
        elif param.required:
            raise ConfigError(f"missing required parameter {name!r}")
        else:
            values[name] = param.default
    return values


# Resource caps: each integer that sizes a table is checked against one where
# it enters (times on 2 vCPUs, fresh process, output discarded).
# the characters table has phi(M)^2 rows at about 8 us and 270 bytes each:
# M = 1021, the worst modulus below this cap, took 8.7 s and 283 MiB
_CHARACTER_MODULUS = 1 << 10
# the kernel holds about 60 bytes per residue: c = 2^20 - 3 took 0.8 s
# and 92 MiB, c = 2^22 - 3 took 2.7 s and 272 MiB
_KLOOSTERMAN_MODULUS = 1 << 20
# a sweep writes cmax * samples rows at about 60 us each plus O(c):
# cmax = 8192 with 8 samples, both caps reached, took 13.4 s and 69 MiB
_SWEEP_MODULUS = 1 << 13
_SWEEP_ROWS = 1 << 16
# the decompositions fill one float per (n, q) pair: (2 nmax + 1) q_max(nmax)
# cells, 128 MiB at this limit
_DELTA_CELLS = 1 << 24
# the q-loop costs about 0.1 ms a row: at this limit the slowest accepted
# table (Q = 32768, nmax = 255, both limits reached) took 8.3 s
_DELTA_ROWS = 1 << 15
# the twist reads a table of q roots of unity: q = 65521 ran into E2_11_2's
# coefficient bound after 1.1 s and 40 MiB, q = 2^20 - 3 after 6.9 s, 92 MiB
_VORONOI_MODULUS = 1 << 16
# the moment walks the primitive characters, about 1.2 ms per unit of M at
# X = 1000: M = 8191 took 9.5 s and 37 MiB
_MOMENT_MODULUS = 1 << 13
# the shifted sum's q-loop grows with its largest |t|, about |r M|: at this
# limit Delta_1_12 at X = 1200 (the default coefficient bound's largest X)
# took 2.3 s and 37 MiB; r = 10^6 with M = 2 took 10.2 s at X = 20.  Past
# |r M| >= 5 max(X, Y) / 2 the sum has no terms
_SHIFTED_RM = 1 << 17


def _check_range(name: str, value: int, cap: int) -> None:
    if not 1 <= value <= cap:
        raise ConfigError(f"{name} {value} must be in [1, {cap}]")


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


@_command(
    "characters",
    # the trailing space keeps the two spaces before "(columns:" that
    # the sha256-pinned tables were written with
    "character value tables: exact root-of-unity exponents ",
    "chi_index,residue,exponent_numerator,exponent_denominator",
    Param("M", int, None, "modulus of the character group", required=True),
)
def _cmd_characters(p: dict) -> list[tuple]:
    modulus = p["M"]
    _check_range("M", modulus, _CHARACTER_MODULUS)
    rows = []
    for idx, chi in enumerate(enumerate_characters(modulus)):
        for residue, num, den in chi.value_rows():
            rows.append((idx, residue, num, den))
    return rows


@_command(
    "kloosterman",
    "Kloosterman sums with the Weil bound",
    "a,b,c,value,weil_bound,ratio",
    Param("a", int, None, "first argument (single-sum mode)"),
    Param("b", int, None, "second argument (single-sum mode)"),
    Param("c", int, None, "modulus (single-sum mode)"),
    Param("cmax", int, None, "sweep moduli 1..cmax (sweep mode)"),
    Param("samples", int, 5, "random (a, b) pairs per modulus in sweep mode"),
    Param("seed", int, 7, "seed for the sweep sampler"),
)
def _cmd_kloosterman(p: dict) -> list[tuple]:
    rows = []
    if p["c"] is not None:
        if p["a"] is None or p["b"] is None:
            raise ConfigError("single-sum mode needs a, b and c")
        _check_range("c", p["c"], _KLOOSTERMAN_MODULUS)
        v = kloosterman(p["a"], p["b"], p["c"])
        rows.append((v.a, v.b, v.c, v.value, v.weil_bound, abs(v.value) / v.weil_bound))
    elif p["cmax"] is not None:
        _check_range("cmax", p["cmax"], _SWEEP_MODULUS)
        _check_range("cmax * samples", p["cmax"] * p["samples"], _SWEEP_ROWS)
        rng = random.Random(p["seed"])
        for c in range(1, p["cmax"] + 1):
            for _ in range(p["samples"]):
                a = rng.randrange(-(10**6), 10**6)
                b = rng.randrange(-(10**6), 10**6)
                v = kloosterman(a, b, c)
                rows.append(
                    (v.a, v.b, v.c, v.value, v.weil_bound, abs(v.value) / v.weil_bound)
                )
    else:
        raise ConfigError("provide either c (single sum) or cmax (sweep)")
    return rows


@_command(
    "delta",
    "delta-symbol decomposition values; exactly 1 at n = 0",
    "n,value",
    Param("Q", float, None, "decomposition parameter Q > 1", required=True),
    Param("P", int, 1, "level; 1 = plain, prime = conductor-lowered"),
    Param("nmax", int, 50, "tabulate n in [-nmax, nmax]"),
    Param("sharpness", float, 0.5, "bump sharpness"),
)
def _cmd_delta(p: dict) -> list[tuple]:
    if not 1 < p["Q"] < math.inf:
        raise ConfigError("Q must be finite and exceed 1")
    if p["nmax"] < 0:
        raise ConfigError("nmax must be nonnegative")
    # q_max at P = 1, the most any level needs, before the scheme calibrates
    rows = _q_max(p["Q"], 1, p["nmax"])
    if rows > _DELTA_ROWS:
        raise ConfigError(
            f"nmax {p['nmax']} at Q {p['Q']} needs {rows} moduli q, over {_DELTA_ROWS}"
        )
    scheme = DeltaScheme(p["Q"], p["P"], pipeline.default_delta_bump(p["sharpness"]))
    cells = (2 * p["nmax"] + 1) * scheme.q_max(p["nmax"])
    if cells > _DELTA_CELLS:
        raise ConfigError(
            f"nmax {p['nmax']} at Q {p['Q']} needs {cells} table cells, over {_DELTA_CELLS}"
        )
    evaluate = delta_decompose if p["P"] == 1 else delta_decompose_lowered
    ns = np.arange(-p["nmax"], p["nmax"] + 1)
    return list(zip(ns.tolist(), evaluate(ns, scheme).tolist()))


@_command(
    "voronoi",
    "dual-summation phase solve and cross-validation",
    "form,q,a,eta_re,eta_im,eta_abs_error,residual,dual_terms",
    Param("form", _parse_form, None, "built-in form id", required=True),
    Param("q", int, 1, "denominator of the additive twist"),
    Param("a", int, 1, "numerator of the additive twist"),
    Param("support_lo", float, 40.0, "test-function support start"),
    Param("support_hi", float, 200.0, "test-function support end"),
    Param("truncation_tol", float, 1e-12, "dual-sum truncation threshold"),
    Param("bound", int, 0, "coefficient bound (0 = per-form default)"),
)
def _cmd_voronoi(p: dict) -> list[tuple]:
    _check_range("q", p["q"], _VORONOI_MODULUS)
    if math.gcd(p["a"], p["q"]) != 1:
        raise ConfigError("a and q must be coprime")
    if not 0.0 <= p["support_lo"] < p["support_hi"] < math.inf:
        raise ConfigError("need 0 <= support_lo < support_hi < inf")
    if not 0.0 < p["truncation_tol"] < math.inf:
        raise ConfigError("truncation_tol must be positive and finite")
    bound = p["bound"] or pipeline.VORONOI_BOUNDS[p["form"]]
    form = modforms.builtin_form(p["form"], bound=bound)
    h = SmoothBump(p["support_lo"], p["support_hi"], sharpness=1.0, normalization="peak")
    rep = pipeline.verify_voronoi(form, p["a"], p["q"], h, truncation_tol=p["truncation_tol"])
    return [(p["form"], p["q"], p["a"], rep.eta.real, rep.eta.imag, rep.eta_abs_error,
             rep.residual, rep.dual_terms)]


@_command(
    "shifted",
    "shifted convolution sum: direct vs decomposition with strata",
    "f1,f2,M,r,X,Y,direct,delta,coprime_stratum,gamma_stratum,"
    "modulus_stratum,bound,ratio,identity_residual,partition_residual",
    Param("f1", _parse_form, None, "first form id", required=True),
    Param("f2", _parse_form, None, "second form id (defaults to f1)"),
    Param("M", int, None, "shift modulus", required=True),
    Param("r", int, 1, "shift multiplier (nonzero)"),
    Param("X", float, None, "first scale", required=True),
    Param("Y", float, None, "second scale (defaults to X)"),
)
def _cmd_shifted(p: dict) -> list[tuple]:
    shift = abs(p["r"] * p["M"])
    if shift > _SHIFTED_RM:
        raise ConfigError(f"r {p['r']} times M {p['M']} is {shift} in size, over {_SHIFTED_RM}")
    f1 = modforms.builtin_form(p["f1"])
    f2 = modforms.builtin_form(p["f2"] or p["f1"])
    y_scale = p["Y"] if p["Y"] is not None else p["X"]
    spec = pipeline.ShiftedSumSpec(
        f1=f1,
        f2=f2,
        r=p["r"],
        shift_modulus=p["M"],
        x_scale=p["X"],
        y_scale=y_scale,
        window=pipeline.default_window(),
    )
    rep = pipeline.shifted_sum_delta(spec)
    return [(f1.form_id, f2.form_id, p["M"], p["r"], p["X"], y_scale, rep.direct_value,
             rep.delta_value, rep.stratum_coprime, rep.stratum_gamma, rep.stratum_modulus,
             rep.bound_value, abs(rep.direct_value) / rep.bound_value,
             rep.identity_residual, rep.partition_residual)]


@_command(
    "moment",
    "second moment of twisted partial sums with its opening, diagonal split, "
    "and bound comparison; at level 1 the bound reduces to the classical "
    "single-form second-moment shape",
    "form,M,X,second_moment,gauss_lhs,gauss_rhs,diagonal,off_diagonal,r_bound,"
    "reconstruction_residual,bound_x,bound_value",
    Param("form", _parse_form, None, "built-in form id", required=True),
    Param("M", int, None, "character modulus", required=True),
    Param("X", float, None, "partial-sum scale", required=True),
)
def _cmd_moment(p: dict) -> list[tuple]:
    _check_range("M", p["M"], _MOMENT_MODULUS)
    form = modforms.builtin_form(p["form"])
    h = pipeline.default_moment_window()
    # the opening's lhs is the second moment itself
    lhs, rhs = pipeline.gauss_square_opening(form, p["M"], p["X"], h)
    split = pipeline.diagonal_split(form, p["M"], p["X"], h)
    _, aggregate = pipeline.residue_class_average(form, p["M"], p["X"], h)
    recon = p["M"] * (split.diagonal + split.off_diagonal)
    residual = abs(aggregate - recon) / max(abs(aggregate), 1e-10)
    # comparison line: the second-moment bound with the default window
    # conventions (epsilon = 0.01; the saving from the exact exponent budget
    # at the rounded hybrid ratio), evaluated at X clamped into the window
    if p["M"] > 1:
        eta = Fraction(
            math.log(form.level) / math.log(p["M"])
        ).limit_denominator(1000)
    else:
        eta = Fraction(0)
    delta = float(pipeline.exponent_budget(eta).delta) if eta < Fraction(2, 5) else 0.0
    conductor = form.level * p["M"] ** 2
    bound_x = min(max(p["X"], conductor ** (0.5 - delta)), conductor ** (0.5 + 0.01))
    bound = pipeline.second_moment_bound(form.level, p["M"], bound_x, delta, 0.01)
    return [(form.form_id, p["M"], p["X"], lhs, lhs, rhs, split.diagonal, split.off_diagonal,
             split.r_bound, residual, bound_x, bound)]


@_command(
    "exponent",
    "exact exponent arithmetic for the hybrid range",
    "eta,delta,final_exponent,subconvex,classical_threshold,blomer_harcos_exponent",
    Param("eta", _parse_fraction, None, "hybrid ratio as exact p/q", required=True),
)
def _cmd_exponent(p: dict) -> list[tuple]:
    budget = pipeline.exponent_budget(p["eta"])
    return [(budget.eta, budget.delta, budget.final_exponent, budget.subconvex,
             budget.classical_threshold, budget.blomer_harcos_exponent)]


@_command(
    "verify-all",
    "module invariant suites",
    "check,label,status,detail",
    Param("threads", int, 1, "worker threads (default 1)"),
)
def _cmd_verify_all(p: dict) -> list[tuple]:
    if p["threads"] < 1:
        raise ConfigError("threads must be positive")
    return [(r.check, r.label, r.status, r.detail) for r in verify.run_all(threads=p["threads"])]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltasum",
        description="Exponential-sum verification toolkit: deterministic CSV "
        "reports for delta decompositions, Kloosterman sums, character "
        "tables, shifted convolution sums, second moments, dual-summation "
        "checks, and exact exponent arithmetic.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="flat key = value parameter file")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output CSV path (default: stdout); "
                        "relative paths respect DELTASUM_OUT_DIR")
    parser.set_defaults(config=None, out=None)
    parser.add_argument("--config", help="flat key = value parameter file")
    parser.add_argument("--out", help="output CSV path (default: stdout); "
                        "relative paths respect DELTASUM_OUT_DIR")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS.values():
        sp = sub.add_parser(
            command.name,
            parents=[common],
            help=command.title.strip(),
            description=f"Emits CSV: {command.header}",
        )
        for param in command.params:
            sp.add_argument(
                f"--{param.name}",
                default=None,
                help=param.help + (" [required]" if param.required else ""),
            )
    return parser


def _resolve_out(out: str | None) -> Path | None:
    if out is None:
        return None
    path = Path(out)
    env_dir = os.environ.get("DELTASUM_OUT_DIR")
    if env_dir and not path.is_absolute():
        path = Path(env_dir) / path
    return path


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = COMMANDS[args.command]
    try:
        rows = command.rows(_resolve_params(command, args))
    except ValueError as exc:  # ConfigError, validation gates, preconditions
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # CalibrationError, NumericalFailure, ..., and a failed allocation
    except (ArithmeticError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    text = _render_csv(command, rows)
    out_path = _resolve_out(args.out)
    if out_path is None:
        sys.stdout.write(text)
    else:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text)
    if "status" in command.columns:
        status = command.columns.index("status")
        return int(any(row[status] == "FAIL" for row in rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
