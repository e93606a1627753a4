"""The end-to-end computations: shifted convolution sums evaluated two ways
(direct and through the conductor-lowered delta decomposition with its
coprime/gamma/modulus strata), dual-summation identity checks, the second
moment of twisted partial sums with its Gauss-sum opening and diagonal
split, the closed-form Kloosterman collapses, and the exact exponent
arithmetic for the hybrid subconvexity range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .arith import inverse_mod, is_squarefree
from .characters import _root_table, enumerate_characters
from .expsums import coprime_residue_sum, cusp_pair_sum, principal_cusp_sum, ramanujan_sum
from .kernels import (
    DeltaScheme,
    ProductBump,
    SmoothBump,
    Stratum,
    _coprime_residues,
    _sqrt_gauss_rule,
    _weight_columns,
    bessel_j_array,
)
from .modforms import InsufficientCoefficients, Newform

__all__ = [
    "DiagonalSplit",
    "ExponentBudget",
    "Inconclusive",
    "PipelineMismatch",
    "ShiftedSumSpec",
    "SumReport",
    "VORONOI_BOUNDS",
    "VoronoiReport",
    "default_delta_bump",
    "default_moment_window",
    "diagonal_split",
    "exponent_budget",
    "gauss_square_opening",
    "kloosterman_collapse",
    "q_cap",
    "residue_class_average",
    "second_moment",
    "second_moment_bound",
    "shifted_sum_bound",
    "shifted_sum_delta",
    "shifted_sum_direct",
    "verify_voronoi",
]


class PipelineMismatch(ArithmeticError):
    """Direct and decomposition values disagree beyond tolerance."""

    def __init__(self, direct_value: float, delta_value: float):
        super().__init__(
            f"direct {direct_value} vs decomposition {delta_value}: "
            f"difference {abs(direct_value - delta_value)}"
        )
        self.direct_value = direct_value
        self.delta_value = delta_value


class Inconclusive(ArithmeticError):
    """Both sides of an identity are too small to solve for the phase."""


IDENTITY_REL_TOL = 1e-6
IDENTITY_ABS_TOL = 1e-10
PARTITION_REL_TOL = 1e-8


def q_cap(x_scale: float, y_scale: float, level: int) -> float:
    """Q with Q^2 = 8 max(X, Y) / P, the smallest cap for which the outer
    modulus sum never leaves the weight's support."""
    if x_scale < 1 or y_scale < 1 or level < 1:
        raise ValueError("scales must be >= 1 and level >= 1")
    return math.sqrt(8.0 * max(x_scale, y_scale) / level)


def default_delta_bump(sharpness: float = 0.5) -> SmoothBump:
    """The scheme bump: supported in [1/2, 1], unit integral."""
    return SmoothBump(0.5, 1.0, sharpness=sharpness, normalization="integral")


def default_moment_window() -> SmoothBump:
    """The second-moment window: supported in [1/2, 5/2], peak 1."""
    return SmoothBump(0.5, 2.5, sharpness=1.0, normalization="peak")


def default_window() -> ProductBump:
    """Product test function supported on [1/2, 5/2]^2: the moment window in
    each variable."""
    h = default_moment_window()
    return ProductBump(h, h)


@dataclass(frozen=True)
class ShiftedSumSpec:
    """Parameters of one shifted convolution sum
    sum_{m = n + r M} lam1(n) lam2(m) / sqrt(n m) F(n/X, m/Y)."""

    f1: Newform
    f2: Newform
    r: int
    shift_modulus: int
    x_scale: float
    y_scale: float
    window: ProductBump

    def __post_init__(self):
        if self.f1.level != self.f2.level:
            raise ValueError("forms must share a level")
        if self.r == 0:
            raise ValueError("r must be nonzero")
        if gcd(self.r, self.level) != 1:
            raise ValueError("r must be coprime to the level")
        if self.shift_modulus < 1 or not is_squarefree(self.shift_modulus):
            raise ValueError("shift modulus must be positive and squarefree")
        if gcd(self.shift_modulus, self.level) != 1:
            raise ValueError("shift modulus must be coprime to the level")
        if self.x_scale < 1 or self.y_scale < 1:
            raise ValueError("scales must be >= 1")

    @property
    def level(self) -> int:
        return self.f1.level

    @property
    def q_scale(self) -> float:
        return q_cap(self.x_scale, self.y_scale, self.level)


def _support(h: SmoothBump, scale: float) -> np.ndarray:
    """The integers n >= 1 strictly inside h's support scaled by scale,
    (lo scale, hi scale): every n at which h(n / scale) can be nonzero."""
    lo = int(math.floor(h.lo * scale)) + 1
    hi = int(math.ceil(h.hi * scale)) - 1
    return np.arange(max(1, lo), hi + 1)


@dataclass(frozen=True)
class SumReport:
    """A shifted sum evaluated directly and through the decomposition.

    identity_residual is |direct - delta|.  partition_residual is
    |coprime + gamma + modulus - delta|, where the total is summed from
    P [P | t] c_q(t/P) and the strata from c_{qP}(t) and c_q(t), computed
    independently; it checks c_{qP}(t) + c_q(t) = P [P | t] c_q(t/P),
    which holds by multiplicativity of c in the modulus when P does not
    divide q.
    """

    direct_value: float
    delta_value: float
    stratum_coprime: float
    stratum_gamma: float
    stratum_modulus: float
    bound_value: float
    identity_residual: float
    partition_residual: float


def shifted_sum_direct(spec: ShiftedSumSpec) -> float:
    """Reference evaluation: lam1(n) lam2(m) / sqrt(n m) F(n/X, m/Y) over
    the n-range, with m = n + rM."""
    ns = _support(spec.window.fx, spec.x_scale)
    lam1 = spec.f1.lam(ns)  # raises unless every n of the support has a(n)
    ms = ns + spec.r * spec.shift_modulus
    keep = np.isin(ms, _support(spec.window.fy, spec.y_scale))
    ns, ms = ns[keep], ms[keep]
    terms = (
        lam1[keep]
        * spec.f2.lam(ms)
        / np.sqrt(ns * ms)
        * spec.window.fx.value_array(ns / spec.x_scale)
        * spec.window.fy.value_array(ms / spec.y_scale)
    )
    return math.fsum(terms)


def _pair_amplitudes(spec: ShiftedSumSpec) -> tuple[np.ndarray, np.ndarray]:
    """A(t) = sum over pairs with n - m + rM = t of the windowed product.

    Grouping by t is an exact reordering: the weight and character sums in
    the decomposition depend on (n, m) only through t.  A is the
    correlation of the n- and m-weights, so it takes O(X) memory.
    """
    ns, w1 = _lam_window(spec.f1, spec.x_scale, spec.window.fx)
    ms, w2 = _lam_window(spec.f2, spec.y_scale, spec.window.fy)
    if not ns.size or not ms.size:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    amps = np.correlate(w1, w2, "full")
    base = int(ns[0] - ms[0]) + spec.r * spec.shift_modulus
    ts = np.arange(base - (ms.size - 1), base + ns.size, dtype=np.int64)
    keep = amps != 0.0
    return ts[keep], amps[keep]


def _gamma_sums(q: int, level: int, ts: np.ndarray) -> tuple[np.ndarray, ...]:
    """The gamma-sums of the decomposition at each t, as exact int64s: the
    whole sum over gamma mod qP with gcd(gamma, q) = 1, P [P | t] c_q(t/P),
    and, for P > 1 not dividing q, the coprime stratum c_{qP}(t) and the
    gamma-multiple stratum c_q(t).

    Each form has period qP in t, so each is evaluated by its own function
    on the residues 0..qP-1 and read at t mod qP: the same integers as on
    t itself, and the strata are never derived from the whole."""
    qp = q * level
    residues = np.arange(qp)
    res = ts % qp
    whole = coprime_residue_sum(q, level, residues)[res]
    if level == 1 or q % level == 0:
        return (whole,)
    return whole, ramanujan_sum(qp, residues)[res], ramanujan_sum(q, residues)[res]


def _decomposition(
    spec: ShiftedSumSpec, scheme: DeltaScheme, ts: np.ndarray, amps: np.ndarray
) -> tuple[float, float, float, float]:
    """(total, coprime, gamma, modulus) in one pass over q.

    The gamma-sums are the closed Ramanujan forms of _gamma_sums.  For P
    not dividing q the coprime and gamma-multiple strata add up to the
    whole sum; for P | q the whole sum is the modulus stratum.  At level 1
    everything is the coprime stratum.
    """
    level = spec.level
    total: list[float] = []
    coprime: list[float] = []
    gamma: list[float] = []
    modulus: list[float] = []
    for q, live, g in _weight_columns(scheme, ts):
        weight = amps[live] * g
        sums = [float(weight @ values) for values in _gamma_sums(q, level, ts[live])]
        total.append(sums[0])
        if level == 1:
            coprime.append(sums[0])
        elif q % level:
            coprime.append(sums[1])
            gamma.append(sums[2])
        else:
            modulus.append(sums[0])
    norm = scheme.raw_zero * (level * scheme.q_scale * scheme.q_scale)
    return tuple(math.fsum(part) / norm for part in (total, coprime, gamma, modulus))


def shifted_sum_bound(spec: ShiftedSumSpec) -> float:
    """Z (Zx Zy)^(1/2) max(Zx, Zy)^2 P^(3/4) max(X, Y)^(3/4) / (X Y)^(1/2),
    the shifted-sum bound shape with unit implied constant."""
    w = spec.window
    zmax = max(w.zx_bound, w.zy_bound)
    return (
        w.z_bound
        * math.sqrt(w.zx_bound * w.zy_bound)
        * zmax**2
        * spec.level**0.75
        * max(spec.x_scale, spec.y_scale) ** 0.75
        / math.sqrt(spec.x_scale * spec.y_scale)
    )


def shifted_sum_delta(spec: ShiftedSumSpec) -> SumReport:
    """Evaluate the shifted sum through the conductor-lowered decomposition,
    with the default bump calibrated at the spec's Q and level, and stratify
    it; the direct value and partition identity are checked against the
    SumReport tolerances."""
    scheme = DeltaScheme(spec.q_scale, spec.level, default_delta_bump())
    direct = shifted_sum_direct(spec)
    bound = shifted_sum_bound(spec)
    ts, amps = _pair_amplitudes(spec)
    total, s1, s2, s3 = _decomposition(spec, scheme, ts, amps)
    identity_residual = abs(direct - total)
    partition_residual = abs((s1 + s2 + s3) - total)
    if identity_residual > max(IDENTITY_REL_TOL * abs(direct), IDENTITY_ABS_TOL):
        raise PipelineMismatch(direct, total)
    if partition_residual > max(PARTITION_REL_TOL * abs(total), 1e-12):
        raise ArithmeticError(
            f"stratum partition {s1 + s2 + s3} does not reconstruct {total}"
        )
    return SumReport(
        direct_value=direct,
        delta_value=total,
        stratum_coprime=s1,
        stratum_gamma=s2,
        stratum_modulus=s3,
        bound_value=bound,
        identity_residual=identity_residual,
        partition_residual=partition_residual,
    )


# ---------------------------------------------------------------------------
# Closed-form Kloosterman collapses of the stratum character sums
# ---------------------------------------------------------------------------


def kloosterman_collapse(
    stratum: Stratum, r: int, m_shift: int, n: int, m: int, level: int, q: int
) -> tuple[complex, float]:
    """(direct, closed): the stratum character sum with its dual-side phases
    enumerated directly, and the closed Kloosterman form it collapses to.

    coprime stratum:          S(r M, m - n; P q)
    gamma-multiple stratum:   S(r M, (m - n) P^-1; q)
    modulus-multiple stratum: S(r M, m - n; P^2 q)
    """
    rm = r * m_shift
    if stratum in (Stratum.COPRIME, Stratum.GAMMA) and gcd(q, level) != 1:
        raise ValueError("this stratum requires gcd(q, level) = 1")
    if stratum == Stratum.COPRIME:
        modulus = q * level
        pairs = [(g, inverse_mod(g, modulus)) for g in _coprime_residues(modulus)]
        direct = _phase_sum(pairs, rm, m - n, modulus)
        closed = principal_cusp_sum(r, m_shift, m, n, level, q)
    elif stratum == Stratum.GAMMA:
        modulus = q
        p_inv = inverse_mod(level, q)
        pairs = [(g, inverse_mod(g, q) * p_inv) for g in _coprime_residues(q)]
        direct = _phase_sum(pairs, rm, m - n, modulus)
        closed = cusp_pair_sum(r, m_shift, m, n, level, q)
    elif stratum == Stratum.MODULUS:
        modulus = q * level * level
        pairs = [(g, inverse_mod(g, modulus)) for g in _coprime_residues(modulus)]
        direct = _phase_sum(pairs, rm, m - n, modulus)
        closed = principal_cusp_sum(r, m_shift, m, n, level, q * level)
    else:
        raise ValueError(f"unknown stratum {stratum}")
    return direct, closed


def _phase_sum(pairs, front: int, back: int, modulus: int) -> complex:
    roots = _root_table(modulus)
    phases = [roots[(front * g + back * gbar) % modulus] for g, gbar in pairs]
    return complex(math.fsum(z.real for z in phases), math.fsum(z.imag for z in phases))


# ---------------------------------------------------------------------------
# Dual-summation identity (solve for the unit phase, cross-validate)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VoronoiReport:
    eta: complex
    eta_abs_error: float
    residual: float
    dual_terms: int


def _dual_integrals(
    order: int, root_scale: float, ns: np.ndarray, hs: tuple[SmoothBump, ...]
) -> list[np.ndarray]:
    """I_h(n) = int h(y) J_order(4 pi sqrt(n y) / root_scale) dy for each n
    in the ascending array ns and each h in hs; every h must have the
    support [lo, hi] of hs[0], and one Bessel matrix serves them all.

    The phase is linear in u = sqrt(y), so the rule is Gauss-Legendre in u
    (kernels._sqrt_gauss_rule): 32 points on each of max(6, ceil(cycles /
    10)) equal panels of [sqrt(lo), sqrt(hi)], where cycles = 2 sqrt(ns[-1])
    (sqrt(hi) - sqrt(lo)) / root_scale, so every panel holds the same <= 10
    cycles; the weight is 2 u du.  Below 6 panels the bump's edges, not the
    oscillation, set the error (4 panels leave 1.1e-12 where 6 leave 1e-14).

    Contract, tested against scipy's J on a Gauss rule uniform in y with at
    least one panel per cycle, for the five built-in forms at q in {1, 3},
    n from the first, a middle and the last block before truncation, and
    the peak-normalised bumps on [40, 200]: within 1e-12 absolute (worst
    measured 1.4e-13, E2_11_2 at q = 3).
    """
    lo, hi = hs[0].lo, hs[0].hi
    cycles = 2.0 * math.sqrt(float(ns[-1])) * (math.sqrt(hi) - math.sqrt(lo)) / root_scale
    us, half, weights = _sqrt_gauss_rule(lo, hi, cycles, 32)
    wts = 2.0 * half * us * weights
    args = np.outer((4.0 * math.pi / root_scale) * np.sqrt(ns), us)
    jvals = bessel_j_array(order, args.ravel()).reshape(args.shape)
    ys = us * us
    return [jvals @ (wts * h.value_array(ys)) for h in hs]


def _dual_side(
    f: Newform, a: int, q: int, hs: tuple[SmoothBump, ...], truncation_tol: float
) -> list[tuple[complex, int]]:
    """(2 pi / (q sqrt(P2))) sum_n lam(n) e(-n (a P2)^-1 / q) I_h(n) for each
    h in hs, with I_h(n) the Bessel-kernel integral of h, and the number of
    dual terms each used.  The sum for h is truncated once |I_h| stays below
    truncation_tol for two blocks.  Every h in hs must have the support of
    hs[0]: each block's quadrature rule and Bessel matrix are built once, on
    that support, for all of them (see _dual_integrals)."""
    p2 = f.level // gcd(f.level, q)
    root_scale = q * math.sqrt(p2)
    inv = inverse_mod(a * p2, q)
    order = f.weight - 1
    block = 256
    re_terms: list[list[float]] = [[] for _ in hs]
    im_terms: list[list[float]] = [[] for _ in hs]
    n_used = [0] * len(hs)
    quiet_blocks = [0] * len(hs)
    start = 1
    while any(quiet < 2 for quiet in quiet_blocks):
        if start > f.bound:
            raise InsufficientCoefficients(
                f"dual sum for {f.form_id} needs coefficients beyond {f.bound}"
            )
        stop = min(start + block - 1, f.bound)
        ns = np.arange(start, stop + 1)
        active = [i for i, quiet in enumerate(quiet_blocks) if quiet < 2]
        block_integrals = _dual_integrals(order, root_scale, ns, tuple(hs[i] for i in active))
        lam = f.lam(ns)
        phases = np.array(_root_table(q))[(-inv * ns) % q]
        for i, integrals in zip(active, block_integrals):
            terms = lam * integrals * phases
            re_terms[i].extend(terms.real.tolist())
            im_terms[i].extend(terms.imag.tolist())
            n_used[i] = stop
            if float(np.abs(integrals).max()) < truncation_tol:
                quiet_blocks[i] += 1
            else:
                quiet_blocks[i] = 0
        start = stop + 1
    scale = 2.0 * math.pi / root_scale
    return [
        (complex(math.fsum(re), math.fsum(im)) * scale, used)
        for re, im, used in zip(re_terms, im_terms, n_used)
    ]


def _twisted_partial_sum(f: Newform, a: int, q: int, h: SmoothBump) -> complex:
    ns = _support(h, 1)
    terms = f.lam(ns) * h.value_array(ns)
    phases = np.array(_root_table(q))[(a * ns) % q]
    return complex(math.fsum(terms * phases.real), math.fsum(terms * phases.imag))


# Coefficient bound per built-in form, enough for verify_voronoi's dual sum to
# reach its truncation point with a test function on [40, 200] and the small
# q that verify-all and the CLI default to.
VORONOI_BOUNDS = {
    "Delta_1_12": 4000,
    "E8_2_8": 4000,
    "E6_3_6": 6000,
    "E4_5_4": 9000,
    "E2_11_2": 20000,
}


def verify_voronoi(
    f: Newform,
    a: int,
    q: int,
    h: SmoothBump,
    truncation_tol: float = 1e-12,
) -> VoronoiReport:
    """Solve for the unit phase in the dual-summation identity and
    cross-validate it on an independent test function.

    lhs = sum lam(n) e(n a / q) h(n) is matched against the dual side with
    the hypothesis that the dual form equals f; eta = lhs / dual. The
    residual is |lhs2 - eta * dual2| / |lhs2| for the second test function
    h2, a peak-normalised bump on the support of h with 1.7 times its
    sharpness; both dual sums come from one _dual_side pass.
    """
    if gcd(a, q) != 1:
        raise ValueError("a and q must be coprime")
    h2 = SmoothBump(h.lo, h.hi, sharpness=h.sharpness * 1.7, normalization="peak")
    lhs = _twisted_partial_sum(f, a, q, h)
    (dual, used), (dual2, used2) = _dual_side(f, a, q, (h, h2), truncation_tol)
    if abs(dual) <= 1e-8 and abs(lhs) <= 1e-8:
        raise Inconclusive(
            f"both sides below 1e-8 (|lhs|={abs(lhs)}, |dual|={abs(dual)}); "
            "choose a different test function"
        )
    eta = lhs / dual
    lhs2 = _twisted_partial_sum(f, a, q, h2)
    residual = abs(lhs2 - eta * dual2) / max(abs(lhs2), 1e-12)
    return VoronoiReport(
        eta=eta,
        eta_abs_error=abs(abs(eta) - 1.0),
        residual=residual,
        dual_terms=max(used, used2),
    )


# ---------------------------------------------------------------------------
# Second moment of twisted partial sums
# ---------------------------------------------------------------------------


def _lam_window(f: Newform, x_scale: float, h: SmoothBump) -> tuple[np.ndarray, np.ndarray]:
    ns = _support(h, x_scale)
    return ns, f.lam(ns) / np.sqrt(ns) * h.value_array(ns / x_scale)


def _check_moment_args(f: Newform, modulus: int) -> None:
    if gcd(modulus, f.level) != 1:
        raise ValueError("modulus must be coprime to the level")
    if not is_squarefree(modulus):
        raise ValueError("modulus must be squarefree")


def second_moment(f: Newform, modulus: int, x_scale: float, h: SmoothBump) -> float:
    """(1 / phi*(M)) sum over primitive chi of |sum lam(n) chi(n) n^-1/2
    h(n/X)|^2, by direct enumeration."""
    _check_moment_args(f, modulus)
    ns, vals = _lam_window(f, x_scale, h)
    chars = [c for c in enumerate_characters(modulus) if c.is_primitive]
    if not chars:
        raise ValueError(f"no primitive characters mod {modulus}")
    moments = []
    for chi in chars:
        z = chi.values(ns)
        moments.append(math.fsum(vals * z.real) ** 2 + math.fsum(vals * z.imag) ** 2)
    return math.fsum(moments) / len(chars)


def residue_class_average(
    f: Newform, modulus: int, x_scale: float, h: SmoothBump
) -> tuple[np.ndarray, complex]:
    """T_b = sum_n lam(n) n^-1/2 e(n b / M) h(n/X) for all residues b, and
    the additive-orthogonality aggregate sum_b |T_b|^2.

    With the window folded into its residue classes, V_c = sum_{n = c} of
    the terms, T_b = sum_c V_c e(c b / M) = M ifft(V)[b]."""
    ns, vals = _lam_window(f, x_scale, h)
    folded = np.bincount(ns % modulus, weights=vals, minlength=modulus)
    t_b = modulus * np.fft.ifft(folded)
    aggregate = math.fsum(np.abs(t_b) ** 2)
    return t_b, aggregate


def gauss_square_opening(
    f: Newform, modulus: int, x_scale: float, h: SmoothBump
) -> tuple[float, float]:
    """(lhs, rhs) of the Gauss-sum opening of the second moment:
    rhs = (1/(M phi*(M))) sum over primitive chi of
    |sum_b conj(chi(b)) T_b|^2. An exact identity, so lhs = rhs up to
    roundoff."""
    _check_moment_args(f, modulus)
    lhs = second_moment(f, modulus, x_scale, h)
    t_b, _ = residue_class_average(f, modulus, x_scale, h)
    residues = np.arange(modulus)
    chars = [c for c in enumerate_characters(modulus) if c.is_primitive]
    pieces = [abs(np.vdot(chi.values(residues), t_b)) ** 2 for chi in chars]
    rhs = math.fsum(pieces) / (modulus * len(chars))
    return lhs, rhs


@dataclass(frozen=True)
class DiagonalSplit:
    """diagonal = sum v_n^2 and off_diagonal = sum over 0 < |r| <= r_bound
    of sum_n v_n v_{n + r M}, with v_n = lam(n) n^-1/2 h(n/X); lag_sums[r-1]
    is the sum for shift r (shift -r has the same products)."""

    diagonal: float
    off_diagonal: float
    r_bound: int
    lag_sums: tuple[float, ...]


def diagonal_split(
    f: Newform, modulus: int, x_scale: float, h: SmoothBump
) -> DiagonalSplit:
    """Split the congruence sum sum_{m = n mod M} into the diagonal m = n
    and the off-diagonal shifts m = n + r M, 0 < |r| <= ceil(5X/(2M))."""
    _check_moment_args(f, modulus)
    _, vals = _lam_window(f, x_scale, h)
    r_bound = int(math.ceil(5.0 * x_scale / (2.0 * modulus)))
    lags = [vals[: -r * modulus] * vals[r * modulus :] for r in range(1, r_bound + 1)]
    # every product appears for r and for -r: doubling the exactly rounded
    # sum of one copy is exact
    off_diagonal = 2.0 * math.fsum(np.concatenate([vals[:0], *lags]))
    return DiagonalSplit(
        math.fsum(vals * vals),
        off_diagonal,
        r_bound,
        tuple(math.fsum(lag) for lag in lags),
    )


# ---------------------------------------------------------------------------
# Bound shapes and exact exponent arithmetic
# ---------------------------------------------------------------------------


def second_moment_bound(
    level: int, modulus: int, x_scale: float, delta: float, epsilon: float
) -> float:
    """conductor^eps (1 + conductor^(1/2)/M * P^(5/8 + d/4) / M^(1/4 - d/2))
    with conductor = P M^2; X must lie in the admissible window."""
    conductor = level * modulus * modulus
    lo = conductor ** (0.5 - delta)
    hi = conductor ** (0.5 + epsilon)
    if not lo <= x_scale <= hi:
        raise ValueError(f"X = {x_scale} outside the window [{lo}, {hi}]")
    return conductor**epsilon * (
        1.0
        + math.sqrt(conductor)
        / modulus
        * level ** (0.625 + delta / 4.0)
        / modulus ** (0.25 - delta / 2.0)
    )


@dataclass(frozen=True)
class ExponentBudget:
    """Exact rational exponent bookkeeping for the hybrid range.

    All exponents are relative to the conductor P M^2 with P = M^eta. The
    saving delta = (2 - 5 eta) / (10 (2 + eta)) is positive exactly on
    eta < 2/5; the final exponent is 1/4 - delta/2. The classical threshold
    2/7 (no conductor lowering) and the Blomer-Harcos hybrid exponent are
    carried for comparison.
    """

    eta: Fraction
    delta: Fraction
    final_exponent: Fraction
    subconvex: bool
    classical_threshold: Fraction
    blomer_harcos_exponent: Fraction


def exponent_budget(eta: Fraction | int | str) -> ExponentBudget:
    """Exact exponent arithmetic at hybrid ratio eta = log P / log M."""
    eta = Fraction(eta)
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    delta = (2 - 5 * eta) / (10 * (2 + eta))
    final_exponent = Fraction(1, 4) - delta / 2
    blomer_harcos = (
        Fraction(1, 4) - Fraction(1, 8) / (2 + eta) - (1 - eta) / (4 * (2 + eta))
    )
    return ExponentBudget(
        eta=eta,
        delta=delta,
        final_exponent=final_exponent,
        subconvex=eta > 0 and delta > 0,
        classical_threshold=Fraction(2, 7),
        blomer_harcos_exponent=blomer_harcos,
    )
