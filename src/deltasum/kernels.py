"""Analytic kernels: smooth bumps, J-Bessel evaluation, the delta-symbol
decomposition with and without conductor lowering, and the oscillatory
double integral that appears after dual summation.

Numerical conventions, fixed for reproducibility:

- the q-sum of the decompositions goes through math.fsum (exactly
  rounded); the a- and b-sums are the exact integer closed form
  P [P | n] c_q(n/P); the short j-sum of the delta weight is added in
  order, j = 1 first;
- a scheme's raw_zero is the decomposition's own raw sum at n = 0, taken
  with the level-1 gamma-sum c_q(0) = phi(q) at every level, and is fixed
  when the scheme is built; every decomposition value is its raw sum
  divided by raw_zero, so the plain anchor is exactly 1;
- both Bessel-kernel integrals, the Voronoi dual integrals of the pipeline
  and the double integral here, take one fixed rule, _sqrt_gauss_rule:
  Gauss-Legendre in u = sqrt(y), where the Bessel phase is linear, on
  equal panels of at most 10 cycles each.  Nothing adapts, so the nodes
  depend on the parameters alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .arith import is_prime
# nothing here reads _unit_roots: perfbench reports its cache hits by this name
from .characters import _root_table as _unit_roots
from .expsums import coprime_residue_sum

__all__ = [
    "CalibrationError",
    "DeltaScheme",
    "NumericalFailure",
    "ProductBump",
    "QuadratureResult",
    "SmoothBump",
    "Stratum",
    "bessel_j_array",
    "calibrate",
    "delta_decompose",
    "delta_decompose_lowered",
    "delta_weight_array",
    "double_bessel_integral",
    "truncation_ranges",
]


class CalibrationError(ArithmeticError):
    """The raw decomposition at n = 0 is unusable (broken bump)."""


class NumericalFailure(ArithmeticError):
    """Quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


# ---------------------------------------------------------------------------
# Smooth bumps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothBump:
    """C-infinity bump on (lo, hi): scale * exp(-s / (u (1 - u))) in the
    normalized coordinate u = (x - lo)/(hi - lo).

    normalization "integral" rescales so the integral over the line equals
    target; "peak" rescales the maximum to target. The sharpness s controls
    how concentrated the bump is; distinct sharpness values give genuinely
    distinct test functions.
    """

    lo: float
    hi: float
    sharpness: float = 1.0
    normalization: str = "integral"
    target: float = 1.0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        if self.sharpness <= 0:
            raise ValueError("sharpness must be positive")
        if self.normalization not in ("integral", "peak"):
            raise ValueError("normalization must be 'integral' or 'peak'")
        # at scale 1.0 value_array is the unscaled template (1.0 * v == v)
        object.__setattr__(self, "_scale", 1.0)
        object.__setattr__(self, "_scale", self._compute_scale())

    def _compute_scale(self) -> float:
        if self.normalization == "peak":
            return self.target / math.exp(-4.0 * self.sharpness)
        integral, _ = _adaptive_gk_1d(self.value_array, self.lo, self.hi, 1e-13)
        if integral <= 0:
            raise ValueError("degenerate bump")
        return self.target / integral

    def __call__(self, x: float) -> float:
        return float(self.value_array(x))

    def value_array(self, xs: np.ndarray) -> np.ndarray:
        """w(x) elementwise; each value depends on x alone.

        Accuracy contract, tested against mpmath at 30 digits for sharpness
        0.25, 0.5 and 1, within 1e-12 of either edge too: |w - w_exact| <=
        2 eps (1 + E) (1 + E/s) w_exact + scale 2^-1022, E = s / (u (1 - u)),
        eps = 2^-53.  The E/s is the rounding of u magnified near u = 1.
        """
        xs = np.asarray(xs, dtype=float)
        u = (xs - self.lo) / (self.hi - self.lo)
        inside = (u > 0.0) & (u < 1.0)
        out = np.zeros_like(u)
        uu = u[inside]
        out[inside] = self._scale * np.exp(-self.sharpness / (uu * (1.0 - uu)))
        return out

    def derivative(self, xs: np.ndarray) -> np.ndarray:
        """w'(x) elementwise: a float for a scalar x, else an array."""
        xs = np.asarray(xs, dtype=float)
        u = (xs - self.lo) / (self.hi - self.lo)
        v = u * (1.0 - u)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = self.value_array(xs) * self.sharpness * (1.0 - 2.0 * u) / (v * v)
        out = np.where((u > 0.0) & (u < 1.0), slope / (self.hi - self.lo), 0.0)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ProductBump:
    """F(u, v) = fx(u) fy(v), with the derivative bounds (Z, Z_u, Z_v) that
    enter the truncation ranges and the shifted-sum bound, fitted on a grid."""

    fx: SmoothBump
    fy: SmoothBump

    def __post_init__(self):
        grid_x = np.linspace(self.fx.lo, self.fx.hi, 801)
        grid_y = np.linspace(self.fy.lo, self.fy.hi, 801)
        vx = self.fx.value_array(grid_x)
        vy = self.fy.value_array(grid_y)
        dx = self.fx.derivative(grid_x)
        dy = self.fy.derivative(grid_y)
        peak_x = float(vx.max())
        peak_y = float(vy.max())
        object.__setattr__(self, "z_bound", peak_x * peak_y)
        # degenerate zero factors keep the default derivative bounds
        zx = max(1.0, float(np.abs(grid_x * dx).max()) / peak_x) if peak_x else 1.0
        zy = max(1.0, float(np.abs(grid_y * dy).max()) / peak_y) if peak_y else 1.0
        object.__setattr__(self, "zx_bound", zx)
        object.__setattr__(self, "zy_bound", zy)


# ---------------------------------------------------------------------------
# 1D adaptive Gauss-Kronrod (the bump's normalization integral)
# ---------------------------------------------------------------------------

_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

# Full 15-point Kronrod rule on [-1, 1]; Gauss-7 lives on the odd indices.
_K_NODES = np.array([-x for x in _XGK[:7]] + [0.0] + list(reversed(_XGK[:7])))
_K_WEIGHTS = np.array(list(_WGK[:7]) + [_WGK[7]] + list(reversed(_WGK[:7])))
_G_INDEX = np.arange(1, 15, 2)
_G_WEIGHTS = np.array(list(_WG[:3]) + [_WG[3]] + list(reversed(_WG[:3])))


def _gk_panel_1d(f, lo: float, hi: float) -> tuple[float, float]:
    """GK15 on [lo, hi]; f maps an array of nodes to an array of values."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    vals = f(mid + half * _K_NODES)
    k = half * float(_K_WEIGHTS @ vals)
    g = half * float(_G_WEIGHTS @ vals[_G_INDEX])
    return k, abs(k - g)


def _adaptive_gk_1d(f, lo, hi, tol, max_depth=50):
    total_len = hi - lo
    stack = [(lo, hi, 0)]
    pieces: list[float] = []
    errs: list[float] = []
    while stack:
        a, b, depth = stack.pop()
        val, err = _gk_panel_1d(f, a, b)
        if err <= tol * max((b - a) / total_len, 1e-16) or depth >= max_depth:
            pieces.append(val)
            errs.append(err)
        else:
            m = 0.5 * (a + b)
            stack.append((m, b, depth + 1))
            stack.append((a, m, depth + 1))
    return math.fsum(pieces), math.fsum(errs)


# ---------------------------------------------------------------------------
# J-Bessel evaluation in three regimes: the power series up to the crossover
# x = 12; Miller's backward recurrence from there up to the order's Hankel
# edge X_order; the order's own Hankel expansion from X_order on, with the
# number of terms it takes at X_order and its phase from one tan(x/2) per
# element
# ---------------------------------------------------------------------------

BESSEL_CROSSOVER = 12.0
_MAX_ORDER = 20
_CHUNK = 1 << 15  # elements per pass, so the temporaries stay small
_HANKEL_MAX_TERMS = 39
_HANKEL_TAIL = 1e-17  # the Hankel expansion starts where its stop terms are below this


def _series_stop(order: int, x: float) -> int:
    """Terms the power series needs at x: the first m with
    |term| < 1e-19 |partial sum|."""
    half = 0.5 * x
    term = half**order / math.factorial(order)
    acc = term
    for m in range(1, 120):
        term *= -(half * half) / (m * (m + order))
        acc += term
        if abs(term) < 1e-19 * abs(acc):
            return m
    return 120


def _hankel_stop(order: int, x: float) -> tuple[int, float]:
    """Terms of the Hankel expansion added at x before the first term that
    stops decreasing or drops below 1e-19, and the size of that term; a sum
    cut at _HANKEL_MAX_TERMS ends on no such term (size inf)."""
    mu = 4.0 * order * order
    term = 1.0
    prev = math.inf
    for m in range(1, _HANKEL_MAX_TERMS + 1):
        term *= (mu - (2.0 * m - 1.0) ** 2) / (m * 8.0 * x)
        if abs(term) >= prev or abs(term) < 1e-19:
            return m - 1, abs(term)
        prev = abs(term)
    return _HANKEL_MAX_TERMS, math.inf


# Every order runs a fixed number of terms, the count its series needs at the
# crossover, where the terms are largest; so a value never depends on its
# neighbours.
_SERIES_TERMS = tuple(_series_stop(k, BESSEL_CROSSOVER) for k in range(_MAX_ORDER + 1))

# Candidate Hankel edges, ratio 2^(1/4) from 20 on
_HANKEL_GRID = np.array([20.0 * 2.0 ** (k / 4.0) for k in range(48)])


@lru_cache(maxsize=None)
def _hankel_terms(order: int) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """The order's Hankel edge X_order, and the coefficients in z = 1/x^2
    of P and of x Q, highest power first:
    P = sum_k (-1)^k a_2k z^k and Q = x^-1 sum_k (-1)^k a_(2k+1) z^k, with
    a_m = prod_(j <= m) (4 order^2 - (2j - 1)^2) / (8 j).

    X_order is the lowest point of _HANKEL_GRID at which the stop rule ends
    on a term below _HANKEL_TAIL, and the coefficients are the terms the
    rule takes there.  Term m falls as x^-m, so past the edge every
    left-out term is smaller still."""
    for edge in _HANKEL_GRID.tolist():
        n, tail = _hankel_stop(order, edge)
        if tail < _HANKEL_TAIL:
            break
    mu = 4.0 * order * order
    a = [1.0]
    for m in range(1, n + 1):
        a.append(a[-1] * (mu - (2.0 * m - 1.0) ** 2) / (m * 8.0))
    signed = [(-1) ** (m // 2) * a[m] for m in range(n + 1)]
    return edge, tuple(signed[0::2][::-1]), tuple(signed[1::2][::-1])


def _hankel_edge(order: int) -> float:
    """X_order, where the Hankel expansion takes over from Miller."""
    return _hankel_terms(order)[0]


def _miller_start(order: int) -> int:
    """Where Miller's recurrence starts for the order: the first even N at
    least 48 above X_order, and at least 64.  J_N(x) / Y_N(x), which sets
    the error the start leaves, is then below 1e-26 for every order and
    every x < X_order."""
    return max(64, 2 * math.ceil((_hankel_edge(order) + 48.0) / 2.0))


def _horner(coeffs: tuple[float, ...], z: np.ndarray) -> np.ndarray:
    """The polynomial in z with these coefficients, highest power first."""
    acc = np.full_like(z, coeffs[0])
    for c in coeffs[1:]:
        acc *= z
        acc += c
    return acc


# sqrt(2) (cos phi, sin phi) for phi = pi/4 + order pi/2, by order mod 4
_HANKEL_PHASE = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))


def _hankel(order: int, xs: np.ndarray) -> np.ndarray:
    """J_order for x >= X_order from its own Hankel expansion (DLMF 10.17.3),
    sqrt(2 / (pi x)) (P cos(x - phi) - Q sin(x - phi)) with
    phi = pi/4 + order pi/2.

    The shift is folded into P and Q: with (c, s) = sqrt(2) (cos phi,
    sin phi), each +-1, the sum is (A cos x + B sin x) / sqrt(2) for
    A = c P + s Q and B = s P - c Q.  cos x and sin x come from one
    t = tan(x / 2), x / 2 exact, as (1 - t^2, 2 t) / (1 + t^2), so the
    phase is never rounded."""
    _, p, q = _hankel_terms(order)
    z = 1.0 / (xs * xs)
    big_p = _horner(p, z)
    big_q = _horner(q, z) / xs
    c, s = _HANKEL_PHASE[order % 4]
    t = np.tan(0.5 * xs)
    tt = t * t
    num = (1.0 - tt) * (c * big_p + s * big_q) + 2.0 * t * (s * big_p - c * big_q)
    return num / ((1.0 + tt) * np.sqrt(math.pi * xs))


def _bessel_miller(order: int, xs: np.ndarray) -> np.ndarray:
    """J_order below X_order: backward recurrence from J_N = 1, J_(N+1) = 0,
    N = _miller_start(order), normalised by 1 = J_0 + 2 sum_k J_2k
    (DLMF 3.6(vi), 10.12.4)."""
    j_next = np.zeros_like(xs)
    j_cur = np.ones_like(xs)
    norm = 2.0 * j_cur
    value = j_cur
    for k in range(_miller_start(order), 0, -1):
        j_next, j_cur = j_cur, (2.0 * k) * j_cur / xs - j_next  # j_cur = J_(k-1)
        if k - 1 == order:
            value = j_cur
        if (k - 1) % 2 == 0:
            norm += j_cur if k == 1 else 2.0 * j_cur
    return value / norm


def _bessel_series_array(order: int, xs: np.ndarray) -> np.ndarray:
    """Power series, the series branch of bessel_j_array."""
    half = 0.5 * xs
    with np.errstate(divide="ignore"):
        term = half**order / math.factorial(order)
    acc = term.copy()
    hh = half * half
    for m in range(1, _SERIES_TERMS[order] + 1):
        term = term * (-hh) / (m * (m + order))
        acc += term
    return acc


def _by_mask(order: int, xs: np.ndarray, mask: np.ndarray, if_true, if_false) -> np.ndarray:
    """if_true(order, x) where mask holds, if_false(order, x) elsewhere."""
    if mask.all():
        return if_true(order, xs)
    if not mask.any():
        return if_false(order, xs)
    out = np.empty_like(xs)
    out[mask] = if_true(order, xs[mask])
    out[~mask] = if_false(order, xs[~mask])
    return out


def _bessel_asymptotic_array(order: int, xs: np.ndarray) -> np.ndarray:
    """The branch of bessel_j_array above the crossover: Miller below the
    order's Hankel edge, the Hankel expansion from it on."""
    return _by_mask(order, xs, xs < _hankel_edge(order), _bessel_miller, _hankel)


def bessel_j_array(order: int, xs: np.ndarray) -> np.ndarray:
    """J_order elementwise, for 0 <= order <= 20 and x >= 0.

    Three regimes: the power series for x <= 12; Miller's backward
    recurrence for 12 < x < X_order; the order's own Hankel expansion for
    x >= X_order, two Horner sums with the order's fixed coefficients and
    one tan(x/2) per element, the phase x unrounded.  X_order is the lowest
    point of a 20 * 2^(k/4) grid at which the order's truncated Hankel sum
    ends on a term below 1e-17 (23.8 for orders up to 9, rising to 113.1
    at order 20), and the sum keeps that number of terms above it; Miller
    starts from the first even N at least 48 above X_order, and at least 64.

    Accuracy contract, tested against mpmath for every order: absolute
    error at most 5e-12 on (0, 2e4], at most 1e-15 on [X_order, 2e4], and
    relative error at most 1e-10 where x < order.  Each value depends on
    (order, x) alone, never on the other elements of the array.
    """
    xs = np.asarray(xs, dtype=float)
    if not 0 <= order <= _MAX_ORDER:
        raise ValueError(f"order must be in [0, {_MAX_ORDER}]")
    if np.any(xs < 0):
        raise ValueError("x must be nonnegative")
    flat = xs.ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, _CHUNK):
        x = flat[start : start + _CHUNK]
        out[start : start + _CHUNK] = _by_mask(
            order, x, x <= BESSEL_CROSSOVER, _bessel_series_array, _bessel_asymptotic_array
        )
    return out.reshape(xs.shape)


# ---------------------------------------------------------------------------
# The delta-symbol weight and decomposition
# ---------------------------------------------------------------------------

# relative widening of the bump's support when bisecting for the band of
# |y| it can reach: far above the few ulps a quotient |y| / (x j) can move
_BAND_MARGIN = 1e-9


def delta_weight_array(x: float, ys: np.ndarray, bump: SmoothBump) -> np.ndarray:
    """g(x, y) = sum_{j >= 1} (x j)^-1 (w(x j) - w(|y| / (x j))) at one
    x > 0, for every y in ys.

    w is the scheme bump supported in [1/2, 1]; the sum is finite because
    both arguments leave the support once j > max(1, 2|y|)/x, and g is 0
    whenever x > max(1, 2|y|).  The terms past an element's own last j are
    exactly 0, so each value depends on (x, y) alone, never on the other
    elements of ys.

    Accuracy contract, tested against mpmath at 30 digits with the bump's
    own scale, for x in [0.02, 3], |y| <= 3 and sharpness 0.25, 0.5 and 1:
    x |g - g_exact| <= 1e-14.

    |y| is sorted once, and for each j w(|y| / (x j)) is evaluated only on
    the band of |y| in (lo x j, hi x j): the bump's support (lo, hi),
    widened by a relative _BAND_MARGIN, bisected in the sorted |y|.  The
    bump's own strict test still decides membership.  Off the band the term
    is (w(x j) - 0) / x j, added only when it is nonzero, so every element
    sees the same sequence of adds as in a pass over the whole array.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    ys_abs = np.abs(np.asarray(ys, dtype=float))
    y_top = float(ys_abs.max()) if ys_abs.size else 0.0
    if x > max(1.0, 2.0 * y_top):
        return np.zeros_like(ys_abs)
    j_max = int(math.ceil(max(1.0, 2.0 * y_top) / x))
    # the sum runs over |y| in ascending order, so each band is a slice
    order = np.argsort(ys_abs, axis=None)
    ordered = ys_abs.ravel()[order]
    margin = _BAND_MARGIN * max(abs(bump.lo), abs(bump.hi))
    edges = np.array([bump.lo - margin, bump.hi + margin])
    acc = np.zeros_like(ordered)
    xjs = x * np.arange(1, j_max + 1)
    for xj, w_xj in zip(xjs.tolist(), bump.value_array(xjs).tolist()):
        start, stop = np.searchsorted(ordered, edges * xj).tolist()
        if w_xj:
            # w(|y| / x j) = 0 off the band
            acc[:start] += w_xj / xj
            acc[stop:] += w_xj / xj
        if start < stop:
            acc[start:stop] += (w_xj - bump.value_array(ordered[start:stop] / xj)) / xj
    acc[x > np.maximum(1.0, 2.0 * ordered)] = 0.0
    out = np.empty_like(acc)
    out[order] = acc
    return out.reshape(ys_abs.shape)


@dataclass(frozen=True)
class DeltaScheme:
    """Delta-symbol decomposition data.

    q_scale is the Q of the decomposition; level P = 1 selects the plain
    scheme and a prime P the conductor-lowered scheme, which detects
    (n/P = 0) together with the congruence n = 0 mod P. raw_zero, the raw
    value at n = 0, is set by calibrate as the scheme is built; c_Q is its
    inverse, and every decomposition divides by raw_zero.
    """

    q_scale: float
    level: int
    bump: SmoothBump
    raw_zero: float = field(init=False)

    def __post_init__(self):
        if self.q_scale <= 1:
            raise ValueError("Q must exceed 1")
        if self.level != 1 and not is_prime(self.level):
            raise ValueError("level must be 1 or a prime")
        object.__setattr__(self, "raw_zero", calibrate(self))

    @property
    def c_q(self) -> float:
        """The calibration constant c_Q = 1 / raw_zero."""
        return 1.0 / self.raw_zero

    def q_max(self, n: int) -> int:
        """Largest modulus with a nonzero weight for this n."""
        q2 = self.q_scale * self.q_scale
        return int(
            math.ceil(self.q_scale * max(1.0, 2.0 * abs(n) / (self.level * q2)))
        )


def _weight_columns(scheme: DeltaScheme, ns):
    """(q, live, g) for each q in 1..q_max(max |n|) whose weight
    g(q/Q, n/(P Q^2)) is nonzero at some n of ns: live indexes those n and
    g holds their weights.  The one q-loop of the delta symbol.

    The weight is evaluated once per q on the distinct |n|, sorted, and
    scattered back to ns; each value depends on (x, y) alone, so g is the
    same as on ns itself."""
    q_scale = scheme.q_scale
    distinct, inverse = np.unique(np.abs(np.asarray(ns)), return_inverse=True)
    ys = distinct / (scheme.level * q_scale * q_scale)
    for q in range(1, scheme.q_max(int(distinct.max(initial=0))) + 1):
        gvals = delta_weight_array(q / q_scale, ys, scheme.bump)[inverse]
        live = np.flatnonzero(gvals)
        if live.size:
            yield q, live, gvals[live]


# nothing here reads _phi_cache: perfbench reports its cache hits by this name
@lru_cache(maxsize=16)
def _phi_cache(bound: int) -> tuple[int, ...]:
    from .arith import MultiplicativeTable

    return MultiplicativeTable(max(bound, 2)).phi


def _raw_sums(scheme: DeltaScheme, flat: np.ndarray, level: int) -> np.ndarray:
    """(1/(P Q^2)) sum_q P [P | n] c_q(n/P) g(q/Q, n/(P_s Q^2)) for each
    n >= 0 of flat, one math.fsum per n, with P_s the scheme's level and P
    the gamma-sum's: P_s for both decompositions, 1 for the calibration."""
    terms = np.zeros((flat.size, scheme.q_max(int(flat.max(initial=0)))))
    for q, live, g in _weight_columns(scheme, flat):
        # the gamma-sum has period qP in n: one table of it, one residue per n
        table = coprime_residue_sum(q, level, np.arange(q * level))
        terms[live, q - 1] = table[flat[live] % (q * level)] * g
    scale = level * scheme.q_scale * scheme.q_scale
    return np.array([math.fsum(row.tolist()) / scale for row in terms])


def calibrate(scheme: DeltaScheme) -> float:
    """raw_zero, the raw decomposition at n = 0, for DeltaScheme to store.
    At P = 1 it is the plain decomposition's own raw sum at n = 0, so the
    anchor is exact; CalibrationError if the bump makes it unusable."""
    raw = float(_raw_sums(scheme, np.zeros(1, dtype=np.int64), 1)[0])
    if raw < 1e-3:
        raise CalibrationError(f"raw decomposition at n = 0 is {raw}; bump unusable")
    window = 1.0 / scheme.q_scale
    if not (1.0 - window <= 1.0 / raw <= 1.0 + window):
        raise CalibrationError(
            f"calibration constant {1.0 / raw} outside sanity window "
            f"for Q = {scheme.q_scale}"
        )
    return raw


def _decompose(n, scheme: DeltaScheme):
    """(1/(P Q^2 raw_zero)) sum_q P [P | n] c_q(n/P) g(q/Q, n/(P Q^2)) for
    each n, the body of both decompositions: a float for a scalar n, else
    an array of n's shape.  Only |n| enters."""
    ns = np.asarray(n, dtype=np.int64)
    out = _raw_sums(scheme, np.abs(ns.ravel()), scheme.level) / scheme.raw_zero
    return float(out[0]) if ns.shape == () else out.reshape(ns.shape)


def delta_decompose(n, scheme: DeltaScheme):
    """Plain decomposition of the indicator [n = 0].

    (c_Q / Q^2) sum_q c_q(n) g(q/Q, n/Q^2), the a-sum collapsed to the
    Ramanujan sum.  n may be an int or an integer numpy array; the result is
    a float or a float64 array of the same shape, each value the same as the
    one-element call.  Exactly 1 at n = 0; O(1e-12)
    roundoff otherwise.  The value at -n equals the value at n by
    construction: only |n| enters.
    """
    if scheme.level != 1:
        raise ValueError("plain decomposition requires a level-1 scheme")
    return _decompose(n, scheme)


@lru_cache(maxsize=512)
def _coprime_residues(q: int) -> tuple[int, ...]:
    return tuple(a for a in range(q) if math.gcd(a, q) == 1)


def delta_decompose_lowered(n, scheme: DeltaScheme):
    """Conductor-lowered decomposition of [n = 0].

    (c_Q / (P Q^2)) sum_q sum*_a sum_b e(n (a + b q)/(q P)) g(q/Q, n/(P Q^2)).
    The b-sum is P [P | n] and what is left of the a-sum is c_q(n/P), so
    the gamma-sum is the exact integer P [P | n] c_q(n/P)
    (expsums.coprime_residue_sum) and an n off the multiples of P gives
    exactly 0; at P = 1 it is c_q(n), the plain decomposition.  n may be an
    int or an integer numpy array, as for delta_decompose.  The value at -n
    equals the value at n: the displayed sum is even in n (a -> -a), and
    only |n| enters.
    """
    if scheme.level < 2:
        raise ValueError("conductor-lowered decomposition requires a prime level")
    return _decompose(n, scheme)


# ---------------------------------------------------------------------------
# Oscillatory double integral with two Bessel kernels and the delta weight
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    panels: int


class Stratum(str, Enum):
    """Partition of the (q, gamma) lattice by divisibility by the level."""

    COPRIME = "coprime"  # gcd(q, P) = 1 and gcd(gamma, P) = 1
    GAMMA = "gamma-multiple"  # gcd(q, P) = 1 and P | gamma
    MODULUS = "modulus-multiple"  # P | q


def truncation_ranges(
    q: int,
    x_scale: float,
    y_scale: float,
    zx: float,
    zy: float,
    q_cap: float,
    level: int,
    stratum: Stratum,
) -> tuple[float, float]:
    """Dual-sum truncation points (T1, T2) for the three strata."""
    if min(q, x_scale, y_scale, zx, zy, q_cap, level) <= 0:
        raise ValueError("all parameters must be positive")
    p = level
    if stratum == Stratum.COPRIME:
        lead = p * p * q * q
        denom = q * q_cap * p
    elif stratum == Stratum.GAMMA:
        lead = p * q * q
        denom = q * q_cap * p
    else:
        lead = p**4 * q * q
        denom = q * q_cap * p * p
    t1 = lead / x_scale * (zx + x_scale / denom) ** 2
    t2 = lead / y_scale * (zy + y_scale / denom) ** 2
    return t1, t2


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _sqrt_gauss_rule(
    lo: float, hi: float, cycles: float, points: int
) -> tuple[np.ndarray, float, np.ndarray]:
    """The rule of both Bessel-kernel integrals: Gauss-Legendre in
    u = sqrt(y), where the phase of J(c sqrt(y)) is linear, with `points`
    nodes on each of max(6, ceil(cycles / 10)) equal panels of
    [sqrt(lo), sqrt(hi)].  cycles counts the kernel's oscillations over the
    interval, so every panel holds the same <= 10 of them; below 6 panels
    the bumps' edges, not the oscillation, set the error.

    Returns the nodes u, the half panel width and the Gauss weights tiled
    per panel: int f(u) du ~ half sum weights f(u)."""
    panels = max(6, math.ceil(cycles / 10.0))
    nodes, weights = _leggauss(points)
    edges = np.linspace(math.sqrt(lo), math.sqrt(hi), panels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1] - edges[0])
    us = (mids[:, None] + half * nodes[None, :]).ravel()
    return us, half, np.tile(weights, panels)


def double_bessel_integral(
    a: float,
    b: float,
    c_scale: int,
    q: int,
    q_cap: float,
    level: int,
    r_shift: float,
    x_scale: float,
    y_scale: float,
    window: ProductBump,
    order: int,
    bump: SmoothBump,
    abs_tol: float | None = None,
) -> QuadratureResult:
    """The double integral of (xy)^(-1/2) F(x/X, y/Y)
    g(q c / Q, (x - y + rM)/(P Q^2)) J_order(4 pi a sqrt(x))
    J_order(4 pi b sqrt(y)) over the support box of F.

    In u = sqrt(x), v = sqrt(y) it is 4 int int fx(u^2/X) fy(v^2/Y)
    g(q c / Q, (u^2 - v^2 + rM)/(P Q^2)) J_order(4 pi a u) J_order(4 pi b v)
    du dv, and both Bessel phases are linear.  Each axis takes the rule of
    the Voronoi dual integrals, _sqrt_gauss_rule with cycles =
    2 a (sqrt(x_hi) - sqrt(x_lo)) (b and y on the other), and the weight is
    one delta_weight_array call on the tensor mesh.  The value takes 32
    points per panel; error_estimate is its distance from the same panels
    at 24 points, and panels counts the tensor panels.

    NumericalFailure, carrying the value and the estimate, is raised when
    the estimate exceeds abs_tol.
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if abs_tol is None:
        abs_tol = (
            1e-9 * window.z_bound * math.sqrt(x_scale * y_scale) * q_cap / (q * c_scale)
        )

    def axis(f, scale, freq, points):
        """Squared nodes, weighted factors half w f(u^2/scale) J(4 pi freq u)
        and panel count on one axis."""
        lo, hi = f.lo * scale, f.hi * scale
        cycles = 2.0 * freq * (math.sqrt(hi) - math.sqrt(lo))
        us, half, weights = _sqrt_gauss_rule(lo, hi, cycles, points)
        xs = us * us
        jvals = bessel_j_array(order, 4.0 * math.pi * freq * us)
        return xs, half * weights * f.value_array(xs / scale) * jvals, us.size // points

    def tensor_rule(points):
        xs, col, x_panels = axis(window.fx, x_scale, a, points)
        ys, row, y_panels = axis(window.fy, y_scale, b, points)
        mesh = (xs[:, None] - ys[None, :] + r_shift) / (level * q_cap * q_cap)
        gvals = delta_weight_array(q * c_scale / q_cap, mesh, bump)
        return 4.0 * float(col @ gvals @ row), x_panels * y_panels

    value, panels = tensor_rule(32)
    estimate = abs(value - tensor_rule(24)[0])
    if estimate > abs_tol:
        raise NumericalFailure(
            f"quadrature error estimate {estimate} exceeds tolerance {abs_tol}",
            value,
            estimate,
        )
    return QuadratureResult(value, estimate, panels)
