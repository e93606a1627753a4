"""The verify-all suite: every module's invariant checks as named,
deterministic rows.

Each check is declared once, by ``@_check(name, label)`` on a body that
returns ``(status, detail)`` with status PASS, FAIL, or MONITOR
(informational, never gating), or raises an ArithmeticError, which FAILs
the row; the decorated ``check_*`` returns the full CheckResult, and
REGISTRY is built in declaration order. Checks are pure and independent,
so the suite may fan out across worker threads; results are reported in
registration order regardless of scheduling, and all reported numbers are
deterministic, which makes repeated runs byte-identical.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from math import gcd
from typing import Callable

import numpy as np

from . import arith, characters, expsums, kernels, modforms, pipeline

__all__ = ["CheckResult", "REGISTRY", "run_all"]

PASS = "PASS"
FAIL = "FAIL"
MONITOR = "MONITOR"


@dataclass(frozen=True)
class CheckResult:
    check: str
    label: str
    status: str
    detail: str


REGISTRY: tuple[tuple[str, Callable[[], CheckResult]], ...] = ()


def _check(name: str, label: str):
    """Declare a check: the body returns (status, detail), the bound
    ``check_*`` returns CheckResult(name, label, status, detail), and
    (name, check) is appended to REGISTRY.  An ArithmeticError raised in
    the body (PipelineMismatch, NumericalFailure, ...) is the row's FAIL,
    with detail 'TypeName: message'; any other exception propagates."""

    def register(body: Callable[[], tuple[str, str]]) -> Callable[[], CheckResult]:
        global REGISTRY

        @functools.wraps(body)
        def check() -> CheckResult:
            try:
                return CheckResult(name, label, *body())
            except ArithmeticError as exc:  # its message carries the diagnostic fields
                return CheckResult(name, label, FAIL, f"{type(exc).__name__}: {exc}")

        REGISTRY += ((name, check),)
        return check

    return register


def _fmt(x: float) -> str:
    return repr(float(x))


def _gate(*notes: str, **observed) -> tuple[str, str]:
    """The (status, detail) of a numeric gated row.

    Each keyword maps a name to (values, tolerance): values is a number or
    a sequence, and its largest, taken with np.max, propagates a NaN.  The
    row is PASS only when every largest value is <= its tolerance, so a
    NaN fails it.  The detail reads 'name value (value/tol of tol)' per
    keyword, followed by the notes."""
    ok = True
    parts = []
    for name, (values, tol) in observed.items():
        worst = float(np.max(values))
        ok = ok and worst <= tol
        parts.append(f"{name} {_fmt(worst)} ({_fmt(worst / tol)} of {tol:g})")
    return PASS if ok else FAIL, "; ".join(parts + list(notes))


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

_BUMP_SHARPNESS = (0.25, 0.5, 1.0)


def _voronoi_window() -> kernels.SmoothBump:
    return kernels.SmoothBump(40.0, 200.0, sharpness=1.0, normalization="peak")


def acceptance_specs() -> list[pipeline.ShiftedSumSpec]:
    """Eight shifted-sum specs spanning the five forms, X = Y in {20, 40},
    shift moduli in {2, 3, 5} coprime to the level, r in {+-1, +-2}."""
    window = pipeline.default_window()
    rows = [
        ("Delta_1_12", 3, 1, 20.0),
        ("Delta_1_12", 5, -2, 40.0),
        ("E8_2_8", 5, -1, 20.0),
        ("E8_2_8", 3, 1, 40.0),
        ("E6_3_6", 2, -1, 40.0),
        ("E4_5_4", 2, 2, 20.0),
        ("E4_5_4", 3, -1, 40.0),
        ("E2_11_2", 2, 1, 40.0),
        ("E2_11_2", 3, 2, 20.0),
    ]
    specs = []
    for fid, m, r, x in rows:
        f = modforms.builtin_form(fid)
        specs.append(
            pipeline.ShiftedSumSpec(
                f1=f, f2=f, r=r, shift_modulus=m, x_scale=x, y_scale=x, window=window
            )
        )
    return specs


# ---------------------------------------------------------------------------
# arith
# ---------------------------------------------------------------------------


@_check("arith.divisor-identities", "Moebius and totient divisor sums")
def check_divisor_identities():
    table = arith.MultiplicativeTable(10_000)
    for n in range(1, 10_001):
        mu_sum = 0
        phi_sum = 0
        for d in arith.divisors(n):
            mu_sum += table.mu[d]
            phi_sum += table.phi[d]
        if mu_sum != (1 if n == 1 else 0) or phi_sum != n:
            return FAIL, f"failure at n={n}"
    return PASS, "n <= 10000"


@_check("arith.phi-star", "primitive character count vs divisor formula")
def check_phi_star_oracle():
    for m in range(1, 201):
        brute = int(np.count_nonzero(characters._group(m).conductors == m))
        if brute != arith.phi_star(m):
            return FAIL, f"mismatch at M={m}: {brute} vs {arith.phi_star(m)}"
    return PASS, "M <= 200"


@_check("arith.factorize-roundtrip", "factorization of random prime products")
def check_factorize_roundtrip():
    rng = random.Random(20240801)
    primes = []
    while len(primes) < 2000:
        # p, q <= 46340, so every product p * q is in factorize's domain
        cand = rng.randrange(3, 46341)
        if arith.is_prime(cand):
            primes.append(cand)
    for i in range(1000):
        p, q = primes[2 * i], primes[2 * i + 1]
        fac = arith.factorize(p * q)
        fac.validate()
        expected = sorted([p, q])
        got = sorted(pr for pr, e in fac.factors for _ in range(e))
        if got != expected:
            return FAIL, f"{p}*{q} -> {fac.factors}"
    return PASS, "1000 random pairs below 46341"


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


@_check("characters.enumeration", "character counts and stability")
def check_character_enumeration():
    for m in (1, 2, 5, 12, 16, 24, 45, 56, 100):
        chars = characters.enumerate_characters(m)
        again = characters.CharacterGroup(m).characters()
        if len(chars) != arith.phi(m):
            return FAIL, f"count mismatch at M={m}"
        if sum(c.is_principal for c in chars) != 1:
            return FAIL, f"principal count at M={m}"
        for c1, c2 in zip(chars, again):
            residues = np.arange(m)
            if c1.index != c2.index or not np.array_equal(
                c1.exponents(residues), c2.exponents(residues)
            ):
                return FAIL, f"unstable tables at M={m}"
    return PASS, "sampled moduli to 100"


@_check("characters.gauss-modulus", "Gauss sums of primitive characters have modulus sqrt(M)")
def check_gauss_modulus():
    deviations = [
        abs(abs(characters.gauss_sum(chi)) - math.sqrt(m)) / math.sqrt(m)
        for m in range(2, 51)
        for chi in characters.enumerate_characters(m)
        if chi.is_primitive
    ]
    return _gate(worst_relative_deviation=(deviations, 1e-10))


@_check("characters.gauss-twist", "chi(n) tau(conj chi) equals the twisted additive sum")
def check_gauss_twist_identity():
    rng = random.Random(7)
    deviations = []
    for m in (5, 8, 12, 13, 21, 36, 40):
        roots_m = [
            complex(math.cos(2 * math.pi * b / m), math.sin(2 * math.pi * b / m))
            for b in range(m)
        ]
        for chi in characters.enumerate_characters(m):
            if not chi.is_primitive:
                continue
            bar = characters.gauss_sum(chi.conjugate())
            conj = chi.values(np.arange(m)).conjugate().tolist()
            for _ in range(4):
                n = rng.randrange(0, 3 * m)
                direct = sum(conj[b] * roots_m[n * b % m] for b in range(m))
                deviations.append(abs(chi(n) * bar - direct))
    return _gate(worst_deviation=(deviations, 1e-9))


@_check("characters.orthogonality", "additive and multiplicative orthogonality")
def check_orthogonality():
    rng = random.Random(99)
    additive = []
    for m in range(1, 101):
        n = rng.randrange(1, 1000)
        k = rng.randrange(1, 1000)
        expect = m if (n - k) % m == 0 else 0
        additive.append(abs(characters.additive_orthogonality_sum(m, n, k) - expect) / m)
    for m in (7, 15, 16, 21):
        for _ in range(10):
            n = rng.randrange(1, 500)
            k = rng.randrange(1, 500)
            if gcd(n, m) != 1 or gcd(k, m) != 1:
                continue
            got = characters.orthogonality_sum(m, n, k)
            expect = arith.phi(m) if (n - k) % m == 0 else 0
            if got != expect:
                return FAIL, f"multiplicative failure at M={m}, n={n}, m={k}"
    return _gate("multiplicative sums exact", additive_error_over_M=(additive, 1e-9))


# ---------------------------------------------------------------------------
# expsums
# ---------------------------------------------------------------------------


@_check("expsums.weil-sweep", "Weil bound on c <= 2000 sweep")
def check_weil_sweep():
    rng = random.Random(31337)
    ratios = []
    imags = []
    for c in range(1, 2001):
        for _ in range(20):
            a = rng.randrange(-(10**6), 10**6)
            b = rng.randrange(-(10**6), 10**6)
            v = expsums.kloosterman(a, b, c)
            if not abs(v.value) <= v.weil_bound + 1e-9:
                return FAIL, f"violation at (a,b,c)=({a},{b},{c})"
            ratios.append(abs(v.value) / v.weil_bound)
            imags.append(v.imag_residual / c)
    return PASS, f"worst |S|/bound {_fmt(np.max(ratios))}, worst imag/c {_fmt(np.max(imags))}"


@_check("expsums.symmetry", "Selberg's identity S(a,b;c) = sum_(d | (a,b,c)) d S(1,ab/d^2;c/d)")
def check_kloosterman_symmetry():
    """Where a or b is a unit mod c the identity is S(a,b;c) = S(1,ab;c), a
    relabelling of the units (x -> a x, or x -> b x^-1): both sides have one
    phase histogram, so the kernel returns the same float for each and
    those draws read exactly 0.  The draws with neither a unit test it."""
    rng = random.Random(5)
    tested = []
    relabelled = []
    for _ in range(300):
        c = rng.randrange(1, 1500)
        a = rng.randrange(-500, 500)
        b = rng.randrange(-500, 500)
        right = math.fsum(
            d * expsums.kloosterman(1, a * b // (d * d), c // d).value
            for d in arith.divisors(arith.gcd3(a, b, c))
        )
        deviation = abs(expsums.kloosterman(a, b, c).value - right)
        (relabelled if gcd(a, c) == 1 or gcd(b, c) == 1 else tested).append(deviation)
    return _gate(
        f"{len(tested)} draws with neither a nor b a unit, {len(relabelled)} relabelled",
        worst_deviation=(tested, 1e-9),
        worst_relabelled=(relabelled, 1e-9),
    )


@_check(
    "expsums.collapse-bitwise", "direct character-sum loop matches kloosterman() bit for bit"
)
def check_collapse_bitwise():
    """The kernel's algorithm restated as a plain loop sharing no code with
    it: a dict histogram of the phases, libm cos/sin and math.fsum. Bitwise
    agreement also pins numpy's cos/sin to libm's on the running host."""
    rng = random.Random(17)
    for _ in range(60):
        c = rng.randrange(1, 700)
        a = rng.randrange(0, c) if c > 1 else 0
        b = rng.randrange(0, c) if c > 1 else 0
        counts: dict[int, int] = {}
        for x in range(c):
            if gcd(x, c) == 1:
                t = (a * x + b * pow(x, -1, c)) % c
                counts[t] = counts.get(t, 0) + 1
        re = math.fsum(n * math.cos(2.0 * math.pi * t / c) for t, n in counts.items())
        im = math.fsum(n * math.sin(2.0 * math.pi * t / c) for t, n in counts.items())
        v = expsums.kloosterman(a, b, c)
        if re != v.value or abs(im) != v.imag_residual:
            return FAIL, f"mismatch at (a,b,c)=({a},{b},{c})"
    return PASS, "60 random triples, c < 700, real and imaginary parts"


@_check("expsums.twisted-multiplicativity", "modulus factorization of Kloosterman sums")
def check_twisted_multiplicativity():
    rng = random.Random(23)
    gaps = []
    while len(gaps) < 200:
        c1 = rng.randrange(1, 120)
        c2 = rng.randrange(1, 120)
        if gcd(c1, c2) != 1 or c1 * c2 > 10_000:
            continue
        m = rng.randrange(-100, 100)
        n = rng.randrange(-100, 100)
        left, right = expsums.twisted_multiplicativity(m, n, c1, c2)
        gaps.append(abs(left - right))
    return _gate("200 tuples", worst_left_minus_right=(gaps, 1e-8))


@_check("expsums.crt-flag", "CRT fast path agrees with brute force")
def check_crt_flag():
    rng = random.Random(71)
    deviations = []
    for _ in range(1000):
        c = rng.randrange(2, 3000)
        a = rng.randrange(-2000, 2000)
        b = rng.randrange(-2000, 2000)
        v1 = expsums.kloosterman(a, b, c).value
        v2 = expsums.kloosterman(a, b, c, use_crt=True).value
        deviations.append(abs(v1 - v2))
    return _gate("1000 cases", worst_deviation=(deviations, 1e-8))


@_check("expsums.ramanujan", "S(1,0;c) degenerates to the Moebius value")
def check_ramanujan_degeneration():
    errors = []
    imags = []
    for c in range(1, 501):
        if expsums.ramanujan_sum(c, 0) != arith.phi(c):
            return FAIL, f"c_q(0) != phi at c={c}"
        v = expsums.kloosterman(1, 0, c)
        errors.append(abs(v.value - arith.mobius(c)))
        imags.append(v.imag_residual / c)
    return _gate("c <= 500", worst_moebius_error=(errors, 1e-9), worst_imag_over_c=(imags, 1e-9))


def _cos_sums(ts: np.ndarray, gammas: np.ndarray, modulus: int) -> np.ndarray:
    """sum over gamma of cos(2 pi t gamma / modulus) for each t, literally."""
    return np.cos((2.0 * math.pi / modulus) * (np.outer(ts, gammas) % modulus)).sum(axis=1)


@_check("expsums.recombination", "a + b q recombination and the closed forms of its gamma-sums")
def check_residue_recombination():
    """The a + b q gamma set against the gcd filter of [0, q p), which the
    cosine sums, of period q p in gamma, cannot replace; and the literal
    cosine sums over it against their closed Ramanujan forms for |t| <= 60:
    the whole sum on every (q, p), the coprime and gamma-multiple strata
    where p is a prime not dividing q."""
    ts = np.arange(-60, 61, dtype=np.int64)
    gaps = []
    for q, p in ((1, 3), (2, 3), (4, 5), (9, 11), (12, 7), (25, 4), (6, 4)):
        qp = q * p
        gammas = expsums.recombine_residues(q, p)
        if sorted(gammas) != [g for g in range(qp) if gcd(g, q) == 1]:
            return FAIL, f"set differs from the gcd filter at (q,p)=({q},{p})"
        gammas = np.array(gammas, dtype=np.int64)
        if len(gammas) != arith.phi(q) * p:
            return FAIL, f"cardinality at (q,p)=({q},{p})"
        pairs = [(_cos_sums(ts, gammas, qp), expsums.coprime_residue_sum(q, p, ts))]
        if arith.is_prime(p) and gcd(q, p) == 1:
            coprime = gammas % p != 0
            pairs.append((_cos_sums(ts, gammas[coprime], qp), expsums.ramanujan_sum(qp, ts)))
            pairs.append((_cos_sums(ts, gammas[~coprime], qp), expsums.ramanujan_sum(q, ts)))
        gaps += [np.abs(literal - closed).max() for literal, closed in pairs]
    return _gate(
        "|t| <= 60",
        "set checked against the gcd filter",
        worst_literal_minus_closed=(gaps, 1e-9),
    )


# ---------------------------------------------------------------------------
# modforms
# ---------------------------------------------------------------------------


@_check("modforms.deligne", "coefficient bound |a(n)| <= tau(n) n^((k-1)/2)")
def check_deligne_bound():
    for fid in modforms.BUILTIN_FORM_IDS:
        f = modforms.builtin_form(fid)
        for n in range(1, 2001):
            if not modforms.deligne_ok(f, n):
                return FAIL, f"{fid} at n={n}"
    return PASS, "all five forms, n <= 2000, exact integers"


@_check("modforms.hecke", "multiplicative relations on a(n)")
def check_hecke_exact():
    for fid in modforms.BUILTIN_FORM_IDS:
        f = modforms.builtin_form(fid)
        for m in range(2, 2001):
            for n in range(2, 2000 // m + 1):
                if gcd(n, f.level) != 1:
                    continue
                if modforms.hecke_residual_exact(f, m, n) != 0:
                    return FAIL, f"{fid} at (m,n)=({m},{n})"
    return PASS, "all five forms, m n <= 2000, exact integers"


@_check("modforms.eta-determinism", "eta expansion independent of multiplication order")
def check_eta_determinism():
    a = modforms.eta_product_series(((1, 2), (11, 2)), 600)
    b = modforms.eta_product_series(((11, 2), (1, 2)), 600)
    ok = a == b
    return PASS if ok else FAIL, "level-11 recipe, two orders, 600 coefficients"


@_check("modforms.level-coefficient", "a(P)^2 = P^(k-2) at the level prime (monitored)")
def check_level_coefficient():
    rows = []
    ok = True
    for fid in modforms.BUILTIN_FORM_IDS:
        f = modforms.builtin_form(fid)
        if f.level == 1:
            continue
        lhs = f.a(f.level) ** 2
        rhs = f.level ** (f.weight - 2)
        ok = ok and lhs == rhs
        rows.append(f"{fid}: a(P)^2={lhs} P^(k-2)={rhs}")
    return MONITOR if ok else FAIL, "; ".join(rows)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


# n in [0, 100]: the anchor n = 0, and n = 1..100 where the decompositions
# must vanish; both take |n| first, so negative n repeat these values
_DELTA_NS = np.arange(0, 101)


@_check("kernels.delta-plain", "plain decomposition detects [n = 0]")
def check_delta_plain():
    off_zero = []
    cqs = []
    for q_scale in (6.0, 10.0, 25.0):
        for s in _BUMP_SHARPNESS:
            scheme = kernels.DeltaScheme(q_scale, 1, pipeline.default_delta_bump(s))
            cqs.append(scheme.c_q)
            if not 0.9 <= scheme.c_q <= 1.1:
                return FAIL, f"c_Q={scheme.c_q} outside [0.9,1.1] at Q={q_scale}"
            values = kernels.delta_decompose(_DELTA_NS, scheme)
            if values[0] != 1.0:
                return FAIL, f"anchor not exact at Q={q_scale}, s={s}"
            off_zero.append(np.abs(values[1:]).max())
    return _gate(
        f"c_Q range [{_fmt(min(cqs))}, {_fmt(max(cqs))}]",
        worst_value_at_nonzero_n=(off_zero, 1e-8),
    )


@_check("kernels.delta-lowered", "conductor-lowered decomposition detects [n = 0]")
def check_delta_lowered():
    off_multiple = []
    multiple = []
    anchor = []
    cqs = []
    for level in (2, 3, 5, 11):
        for q_scale in (6.0, 10.0, 25.0):
            for s in _BUMP_SHARPNESS:
                scheme = kernels.DeltaScheme(q_scale, level, pipeline.default_delta_bump(s))
                cqs.append(scheme.c_q)
                if not 0.9 <= scheme.c_q <= 1.1:
                    return FAIL, f"c_Q={scheme.c_q} outside [0.9,1.1] at Q={q_scale}, P={level}"
                values = kernels.delta_decompose_lowered(_DELTA_NS, scheme)
                anchor.append(abs(values[0] - 1.0))
                positive = np.abs(values[1:])
                on_multiple = _DELTA_NS[1:] % level == 0
                off_multiple.append(positive[~on_multiple].max())
                multiple.append(positive[on_multiple].max())
    return _gate(
        "Q in {6, 10, 25}, sharpness in {0.25, 0.5, 1}, P in {2, 3, 5, 11}",
        f"c_Q range [{_fmt(min(cqs))}, {_fmt(max(cqs))}]",
        worst_off_multiple=(off_multiple, 1e-8),
        worst_multiple=(multiple, 1e-8),
        anchor_error=(anchor, 1e-8),
    )


@_check("kernels.bessel", "J-Bessel vs integral oracle, branch agreement, recurrence")
def check_bessel():
    def oracle(k, x, nodes=8192):
        ts = np.linspace(0.0, math.pi, nodes + 1)
        vals = np.cos(k * ts - x * np.sin(ts))
        return float(np.trapezoid(vals, ts) / math.pi)

    xs = np.array([1.0, 5.0, 20.0])
    oracle_gaps = [
        abs(j - oracle(k, x))
        for k in (0, 1, 2, 5, 11)
        for x, j in zip(xs.tolist(), kernels.bessel_j_array(k, xs).tolist())
    ]
    # both seams: series against Miller around x = 12, and Miller against
    # the Hankel expansion at each order's edge X_k
    xs = np.linspace(11.0, 13.0, 9)
    branch_gaps = []
    for k in (0, 1, 5, 11, 20):
        gap = kernels._bessel_series_array(k, xs) - kernels._bessel_asymptotic_array(k, xs)
        branch_gaps.append(np.abs(gap).max())
    for k in range(kernels._MAX_ORDER + 1):
        edge = np.array([kernels._hankel_edge(k)])
        gap = kernels._bessel_miller(k, edge) - kernels._hankel(k, edge)
        branch_gaps.append(abs(gap[0]))
    xs = np.linspace(0.5, 30.0, 30)
    orders = (1, 2, 5, 11, 19)
    js = {j: kernels.bessel_j_array(j, xs) for j in {k + d for k in orders for d in (-1, 0, 1)}}
    recurrence = [np.abs(js[k - 1] + js[k + 1] - 2.0 * k / xs * js[k]).max() for k in orders]
    # gates from the 5e-12 accuracy contract of bessel_j_array: one value
    # against an exact oracle, two values, and the three-term recurrence
    return _gate(
        oracle=(oracle_gaps, 1e-11),
        branches=(branch_gaps, 1e-11),
        recurrence=(recurrence, 1e-10),
    )


@_check("kernels.weight-support", "delta weight support and x^-1 envelope")
def check_delta_weight_envelope():
    bump = pipeline.default_delta_bump()
    scaled = []
    ys = np.linspace(-2.0, 2.0, 50)
    for x in np.linspace(0.02, 3.0, 50):
        g = kernels.delta_weight_array(float(x), ys, bump)
        outside = ys[(float(x) > np.maximum(1.0, 2.0 * np.abs(ys))) & (g != 0.0)]
        if outside.size:
            return FAIL, f"support violated at x={x}, y={outside[0]}"
        scaled.append(float(np.abs(g).max()) * float(x))
    return MONITOR, f"fitted envelope constant sup x|g| = {_fmt(np.max(scaled))} on a 50x50 grid"


_J_CASES = (
    (0.25, 0.3, 1, 1, 8.0, 1, 2.0, 4.0, 4.0, 11),
    (0.5, 0.5, 1, 2, 10.0, 2, 3.0, 6.0, 5.0, 1),
    (0.8, 0.4, 1, 1, 6.0, 3, 1.0, 3.0, 3.0, 3),
    (1.5, 1.0, 2, 1, 12.0, 2, -2.0, 5.0, 4.0, 5),
    (2.5, 2.0, 1, 1, 9.0, 5, 0.5, 4.0, 6.0, 7),
)


def _riemann_reference(a, b, c, q, q_cap_v, level, r_shift, xs_, ys_, window, order, bump, n=1000):
    """The midpoint rule on [X/2, 5X/2] x [Y/2, 5Y/2] with one step
    h = 2 min(X, Y) / n on both axes, so the shorter axis has n cells.

    On a common step x_i - y_j = (X - Y)/2 + (i - j) h depends on the lag
    k = i - j alone, so the double sum is sum_k g(k) C_k: the weight at the
    lags, one delta_weight_array call, against the lag sums
    C_k = sum_(i - j = k) col_i row_j, one direct np.convolve.
    """
    h = 2 * min(xs_, ys_) / n
    nx, ny = round(2 * xs_ / h), round(2 * ys_ / h)
    if not (math.isclose(nx * h, 2 * xs_) and math.isclose(ny * h, 2 * ys_)):
        raise ValueError(f"no common step: 2X/h = {2 * xs_ / h}, 2Y/h = {2 * ys_ / h}")
    xs = xs_ / 2 + (np.arange(nx) + 0.5) * h
    ys = ys_ / 2 + (np.arange(ny) + 0.5) * h
    col = window.fx.value_array(xs / xs_) * kernels.bessel_j_array(
        order, 4 * math.pi * a * np.sqrt(xs)
    ) / np.sqrt(xs)
    row = window.fy.value_array(ys / ys_) * kernels.bessel_j_array(
        order, 4 * math.pi * b * np.sqrt(ys)
    ) / np.sqrt(ys)
    # lags k = -(ny - 1) .. nx - 1, in np.convolve's output order
    lags = np.arange(1 - ny, nx)
    g = kernels.delta_weight_array(
        q * c / q_cap_v, ((xs_ - ys_) / 2 + lags * h + r_shift) / (level * q_cap_v**2), bump
    )
    return math.fsum((g * np.convolve(col, row[::-1])).tolist()) * h * h


@_check("kernels.double-integral", "sqrt-trapezoid double integral vs 1e6-cell midpoint grid")
def check_double_integral():
    bump = pipeline.default_delta_bump()
    window = pipeline.default_window()
    ratios = []
    for a, b, c, q, q_cap_v, level, r_shift, xs_, ys_, order in _J_CASES:
        res = kernels.double_bessel_integral(
            a, b, c, q, q_cap_v, level, r_shift, xs_, ys_, window, order, bump
        )
        ref = _riemann_reference(
            a, b, c, q, q_cap_v, level, r_shift, xs_, ys_, window, order, bump
        )
        ratios.append(abs(res.value - ref) / max(res.error_estimate, 1e-14))
    # trivial zero: support of the weight violated everywhere on the box
    res0 = kernels.double_bessel_integral(
        0.5, 0.5, 4, 9, 6.0, 1, 0.0, 3.0, 3.0, window, 3, bump
    )
    if res0.value != 0.0:
        return FAIL, f"support-violating parameters gave {res0.value}"
    return _gate(
        "5 parameter sets",
        "zero outside the weight support",
        worst_diff_over_estimate=(ratios, 3.0),
    )


@_check(
    "kernels.double-integral-envelope",
    "double integral against its decay envelope (fitted constant)",
)
def check_double_integral_envelope():
    bump = pipeline.default_delta_bump()
    window = pipeline.default_window()
    scaled = []
    for a in (0.3, 0.8, 1.6):
        for b in (0.4, 1.0, 2.1):
            for q in (1, 2, 3):
                res = kernels.double_bessel_integral(
                    a, b, 1, q, 9.0, 2, 1.5, 4.0, 4.0, window, 3, bump
                )
                xs_, ys_ = 4.0, 4.0
                envelope = (
                    window.z_bound
                    * math.sqrt(xs_ * ys_)
                    * 9.0
                    / q
                    / math.sqrt((1 + a * math.sqrt(xs_)) * (1 + b * math.sqrt(ys_)))
                )
                scaled.append(abs(res.value) / envelope)
    return MONITOR, f"fitted constant {_fmt(np.max(scaled))} on the 3x3x3 grid"


@_check("kernels.truncation-ranges", "dual-sum truncation formulas per stratum")
def check_truncation_ranges():
    t1, t2 = kernels.truncation_ranges(1, 4.0, 4.0, 1.0, 1.0, 2.0, 2, kernels.Stratum.COPRIME)
    e1 = 2**2 / 4.0 * (1.0 + 4.0 / (1 * 2.0 * 2)) ** 2
    s1, _ = kernels.truncation_ranges(1, 4.0, 4.0, 1.0, 1.0, 2.0, 2, kernels.Stratum.GAMMA)
    m1, _ = kernels.truncation_ranges(3, 5.0, 7.0, 1.5, 2.0, 4.0, 1, kernels.Stratum.MODULUS)
    c1, _ = kernels.truncation_ranges(3, 5.0, 7.0, 1.5, 2.0, 4.0, 1, kernels.Stratum.COPRIME)
    pairs = ((t1, e1), (t1 / s1, 2.0), (m1, c1), (t2, e1))  # level 1 collapses m1, c1
    return _gate(
        "substitution values and stratum ratios",
        worst_relative_deviation=([abs(x - y) / max(abs(x), abs(y)) for x, y in pairs], 1e-9),
    )


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@_check("pipeline.shifted-identity", "shifted sums: direct vs decomposition, stratum partition")
def check_shifted_pipeline():
    # each residual over its own spec's tolerance; pass while <= 1
    reps = [pipeline.shifted_sum_delta(spec) for spec in acceptance_specs()]
    identity = [
        r.identity_residual
        / max(pipeline.IDENTITY_REL_TOL * abs(r.direct_value), pipeline.IDENTITY_ABS_TOL)
        for r in reps
    ]
    partition = [
        r.partition_residual / (pipeline.PARTITION_REL_TOL * max(abs(r.delta_value), 1e-300))
        for r in reps
    ]
    return _gate(
        worst_identity_residual_over_tolerance=(identity, 1.0),
        worst_partition_residual_over_tolerance=(partition, 1.0),
    )


@_check(
    "pipeline.kloosterman-collapse", "stratum character sums equal their closed Kloosterman forms"
)
def check_kloosterman_collapse():
    rng = random.Random(4242)
    gaps = []
    for stratum in (kernels.Stratum.COPRIME, kernels.Stratum.GAMMA, kernels.Stratum.MODULUS):
        done = 0
        while done < 100:
            level = rng.choice((2, 3, 5, 11))
            q = rng.randrange(1, 13)
            if stratum != kernels.Stratum.MODULUS and gcd(q, level) != 1:
                continue
            r = rng.choice((1, -1, 2, -2))
            if gcd(r, level) != 1:
                continue
            m_shift = rng.choice((1, 2, 3, 5, 6))
            n = rng.randrange(1, 60)
            m = rng.randrange(1, 60)
            direct, closed = pipeline.kloosterman_collapse(
                stratum, r, m_shift, n, m, level, q
            )
            gaps.append(abs(direct - closed))
            done += 1
    return _gate("100 tuples per stratum", worst_direct_minus_closed=(gaps, 1e-8))


@_check("pipeline.voronoi", "dual-summation phase has unit modulus, cross-validated")
def check_voronoi():
    h = _voronoi_window()
    reps = []
    for fid in modforms.BUILTIN_FORM_IDS:
        f = modforms.builtin_form(fid, bound=pipeline.VORONOI_BOUNDS[fid])
        for q in (1, 2, 3, 4):
            if gcd(q, f.level) == 1:
                reps.append(pipeline.verify_voronoi(f, 1, q, h))
    return _gate(
        worst_eta_modulus_error=([rep.eta_abs_error for rep in reps], 1e-6),
        worst_residual=([rep.residual for rep in reps], 1e-5),
    )


@_check(
    "pipeline.voronoi-ramified",
    "ramified dual-summation phase is the Atkin-Lehner sign, cross-validated",
)
def check_voronoi_ramified():
    # where the prime level P divides q the dual side's normalisation
    # absorbs the Atkin-Lehner eigenvalue w_P = -a(P) / P^(k/2 - 1), so the
    # solved phase is predicted: +1 for E8_2_8 and -1 for E2_11_2
    h = _voronoi_window()
    notes = []
    observed = {}
    for fid, q in (("E8_2_8", 2), ("E2_11_2", 11)):
        f = modforms.builtin_form(fid, bound=pipeline.VORONOI_BOUNDS[fid])
        w_p = -f.a(f.level) / f.level ** (f.weight // 2 - 1)
        rep = pipeline.verify_voronoi(f, 1, q, h)
        notes.append(f"{fid} q={q}: w_P={_fmt(w_p)}")
        observed[f"{fid} |eta-w_P|"] = (abs(rep.eta - w_p), 1e-8)
        observed[f"{fid} residual"] = (rep.residual, 1e-5)
    return _gate(*notes, **observed)


def _moment_by_classes(f, modulus: int, x_scale: float, h) -> float:
    """The primitive second moment from congruence classes alone.

    For (ab, M) = 1, sum* chi(a) conj(chi(b)) = sum_{d | (M, a - b)} phi(d)
    mu(M/d) (Iwaniec-Kowalski, ch. 3), so phi*(M) times the moment is
    sum_{d | M} phi(d) mu(M/d) sum_{c mod d} (sum_{a = c (d), (a, M) = 1}
    A_a)^2; no character value enters.
    """
    ns, vals = pipeline._lam_window(f, x_scale, h)
    coprime = np.gcd(ns, modulus) == 1
    ns, vals = ns[coprime], vals[coprime]
    terms = []
    for d in arith.divisors(modulus):
        weight = arith.phi(d) * arith.mobius(modulus // d)
        if weight:
            classes = np.bincount(ns % d, weights=vals, minlength=d)
            terms.append(weight * math.fsum(classes * classes))
    return math.fsum(terms) / arith.phi_star(modulus)


@_check(
    "pipeline.moment-identities",
    "Gauss-sum opening, congruence-class form and diagonal split reconstruction",
)
def check_moment_identities():
    h = pipeline.default_moment_window()
    f = modforms.builtin_form("Delta_1_12")
    opening = []
    class_form = []
    for modulus in (3, 5, 15, 21):
        lhs, rhs = pipeline.gauss_square_opening(f, modulus, 30.0, h)
        opening.append(abs(lhs - rhs) / max(abs(lhs), 1e-12))
        classes = _moment_by_classes(f, modulus, 30.0, h)
        class_form.append(abs(lhs - classes) / max(abs(lhs), 1e-12))
    split = pipeline.diagonal_split(f, 3, 30.0, h)
    _, aggregate = pipeline.residue_class_average(f, 3, 30.0, h)
    recon = 3 * (split.diagonal + split.off_diagonal)
    empty = pipeline.diagonal_split(f, 31, 9.0, h)
    if not (split.diagonal >= 0.0 and empty.off_diagonal == 0.0):
        return FAIL, f"diagonal {split.diagonal}, empty off-diagonal {empty.off_diagonal}"
    return _gate(
        worst_opening_residual=(opening, 1e-8),
        reconstruction_residual=(abs(aggregate - recon) / max(abs(aggregate), 1e-10), 1e-8),
        worst_class_form_residual=(class_form, 1e-12),
    )


@_check("pipeline.exponents", "exact exponent arithmetic and the subconvex range")
def check_exponents():
    from fractions import Fraction

    b1 = pipeline.exponent_budget(Fraction(2, 5))
    b2 = pipeline.exponent_budget(0)
    b3 = pipeline.exponent_budget(Fraction(2, 7))
    ok = (
        b1.delta == 0
        and not b1.subconvex
        and b2.delta == Fraction(1, 10)
        and b2.final_exponent == Fraction(1, 5)
        and not b2.subconvex
        and b3.delta == Fraction(1, 40)
        and b3.subconvex
        and b3.classical_threshold == Fraction(2, 7)
    )
    # the subconvex flag across its boundary and past it; the classical
    # threshold does not move with eta
    for num in range(0, 80):
        eta = Fraction(num, 100)
        budget = pipeline.exponent_budget(eta)
        if budget.subconvex != (0 < eta < Fraction(2, 5)):
            ok = False
        if budget.classical_threshold != Fraction(2, 7):
            ok = False
    return (
        PASS if ok else FAIL,
        "delta(2/5)=0, delta(0)=1/10, delta(2/7)=1/40, flag on 0 < eta < 2/5",
    )


@_check("pipeline.bound-monotonicity", "bound shapes move with their stated exponents")
def check_bound_monotonicity():
    base = dict(level=3, modulus=20, x_scale=0.0, delta=0.05, epsilon=0.05)
    conductor = base["level"] * base["modulus"] ** 2
    base["x_scale"] = conductor**0.5
    v0 = pipeline.second_moment_bound(**base)
    up_p = pipeline.second_moment_bound(5, 20, (5 * 400) ** 0.5, 0.05, 0.05)
    up_m = pipeline.second_moment_bound(3, 40, (3 * 1600) ** 0.5, 0.05, 0.05)
    window = pipeline.default_window()
    f = modforms.builtin_form("E6_3_6")
    s0 = pipeline.ShiftedSumSpec(f, f, 1, 2, 20.0, 20.0, window)
    s_x = pipeline.ShiftedSumSpec(f, f, 1, 2, 40.0, 20.0, window)
    s_y = pipeline.ShiftedSumSpec(f, f, 1, 2, 20.0, 40.0, window)
    s_xy = pipeline.ShiftedSumSpec(f, f, 1, 2, 40.0, 40.0, window)
    b0, bx, by, bxy = map(pipeline.shifted_sum_bound, (s0, s_x, s_y, s_xy))
    if not (up_p > v0 > up_m and bx == by > b0):
        return FAIL, f"bounds out of order: {(v0, up_p, up_m)}, {(b0, bx, by)}"
    # doubling one scale: exponent 3/4 - 1/2 = +1/4; doubling both: -1/4
    pairs = ((bx / b0, 2.0**0.25), (bxy / b0, 2.0**-0.25))
    return _gate(
        "second-moment bound in P and M; shifted-sum bound in X and Y",
        worst_relative_deviation=([abs(x - y) / max(abs(x), abs(y)) for x, y in pairs], 1e-12),
    )


def _shift_strength(f, modulus, x_scale, h) -> float:
    """sum over 0 < |r| <= r_bound of |sum_n v_n v_{n + r M}|; shifts r and
    -r have the same sum."""
    lag_sums = pipeline.diagonal_split(f, modulus, x_scale, h).lag_sums
    return 2.0 * math.fsum(abs(s) for s in lag_sums)


@_check(
    "pipeline.moment-slope",
    "off-diagonal size vs shift modulus, against the bound exponent -1/4 (monitored)",
)
def check_moment_slope():
    """Per form, the fitted slope of log proxy(M) in log M and the constant
    max_M proxy(M) M^(1/4).  -1/4 is the exponent of the off-diagonal's
    upper bound, not a prediction: any slope at or below it is consistent."""
    h = pipeline.default_moment_window()
    rows = []
    for fid in modforms.BUILTIN_FORM_IDS:
        f = modforms.builtin_form(fid)
        moduli = []
        proxies = []
        for modulus in range(11, 42, 2):
            if not arith.is_squarefree(modulus) or gcd(modulus, f.level) != 1:
                continue
            conductor = f.level * modulus * modulus
            grid = np.exp(
                np.linspace(math.log(conductor**0.45), math.log(conductor**0.55), 9)
            )
            proxy = float(
                np.mean([_shift_strength(f, modulus, float(x), h) for x in grid])
            )
            if not proxy <= 0:  # a NaN proxy is kept, so the fit reads nan
                moduli.append(modulus)
                proxies.append(proxy)
        slope = float(np.polyfit(np.log(moduli), np.log(proxies), 1)[0])
        constant = np.max([p * m**0.25 for m, p in zip(moduli, proxies)])
        rows.append(f"{fid}: slope={_fmt(slope)} constant={_fmt(constant)}")
    return MONITOR, "; ".join(rows)


@_check(
    "pipeline.shifted-ratio",
    "fitted constant |S| / bound across the acceptance grid (monitored)",
)
def check_shifted_ratio():
    ratios = []
    for spec in acceptance_specs():
        rep = pipeline.shifted_sum_delta(spec)
        ratios.append(abs(rep.direct_value) / rep.bound_value)
    return MONITOR, f"fitted constant {_fmt(np.max(ratios))} over {len(ratios)} specs"


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def run_all(threads: int = 1) -> list[CheckResult]:
    """Run every check; rows come back in registration order."""
    if threads <= 1:
        return [fn() for _, fn in REGISTRY]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn) for _, fn in REGISTRY]
        return [f.result() for f in futures]
