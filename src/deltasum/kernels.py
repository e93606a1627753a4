"""Analytic kernels: smooth bumps, J-Bessel evaluation, the delta-symbol
decomposition with and without conductor lowering, and the oscillatory
double integral that appears after dual summation.

Numerical conventions, fixed for reproducibility:

- the q-sum of the decompositions and the quadrature panel sums go
  through math.fsum (exactly rounded); the a- and b-sums are the exact
  integer closed form P [P | n] c_q(n/P); the short j-sum of the delta
  weight is added in order, j = 1 first;
- the decomposition value is the raw sum divided by the raw sum at n = 0;
  at n = 0 the plain raw sum has exactly the terms of the calibration sum,
  so the plain anchor is exact;
- adaptive quadrature subdivides one generation of panels at a time; each
  panel's accept-or-split decision depends on that panel alone, so the
  panel tree, and with math.fsum the total, do not depend on the order in
  which panels are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .arith import is_prime
# nothing here reads _unit_roots: perfbench reports its cache hits by this name
from .characters import _root_table as _unit_roots, additive_orthogonality_sum
from .expsums import coprime_residue_sum

__all__ = [
    "CalibrationError",
    "DeltaScheme",
    "NumericalFailure",
    "ProductBump",
    "QuadratureResult",
    "SmoothBump",
    "Stratum",
    "UncalibratedScheme",
    "bessel_j_array",
    "calibrate",
    "congruence_average",
    "delta_decompose",
    "delta_decompose_lowered",
    "delta_weight_array",
    "double_bessel_integral",
    "truncation_ranges",
]


class CalibrationError(ArithmeticError):
    """The raw decomposition at n = 0 is unusable (broken bump)."""


class UncalibratedScheme(RuntimeError):
    """A decomposition was requested before calibrate()."""


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
# J-Bessel evaluation: power series up to the crossover; above it the Hankel
# expansion for orders 0 and 1 with upward recurrence where x >= order, and
# Miller's backward recurrence where x < order
# ---------------------------------------------------------------------------

BESSEL_CROSSOVER = 12.0
_MAX_ORDER = 20
_CHUNK = 1 << 15  # elements per pass, so the temporaries stay small
_HANKEL_MAX_TERMS = 39
_MILLER_START = 64  # even; J_64(x) / Y_64(x) is below 1e-40 for x < 20


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


def _hankel_stop(order: int, x: float) -> int:
    """Terms of the Hankel expansion added at x before the first term that
    stops decreasing or drops below 1e-19."""
    mu = 4.0 * order * order
    term = 1.0
    prev = math.inf
    for m in range(1, _HANKEL_MAX_TERMS + 1):
        term *= (mu - (2.0 * m - 1.0) ** 2) / (m * 8.0 * x)
        if abs(term) >= prev or abs(term) < 1e-19:
            return m - 1
        prev = abs(term)
    return _HANKEL_MAX_TERMS


# Every order runs a fixed number of terms, the count its series needs at the
# crossover, where the terms are largest; so a value never depends on its
# neighbours.
_SERIES_TERMS = tuple(_series_stop(k, BESSEL_CROSSOVER) for k in range(_MAX_ORDER + 1))

# Lower edges of the x bands of the Hankel kernel: unit steps where the
# stop rule's count still grows with x, then ratio 2^(1/4).  A band runs the
# count the stop rule gives at its lower edge; the last band is unbounded.
_HANKEL_BANDS = np.array(
    [float(x) for x in range(10, 20)] + [20.0 * 2.0 ** (k / 4.0) for k in range(48)]
)


def _hankel_band_coefficients(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients in z = 1/x^2 of P and of x Q, one row per power of z
    (lowest first) and one column per band, zero past the band's count:
    P = sum_k (-1)^k a_2k z^k and Q = x^-1 sum_k (-1)^k a_(2k+1) z^k, with
    a_m = prod_(j <= m) (4 order^2 - (2j - 1)^2) / (8 j)."""
    mu = 4.0 * order * order
    a = [1.0]
    for m in range(1, _HANKEL_MAX_TERMS + 1):
        a.append(a[-1] * (mu - (2.0 * m - 1.0) ** 2) / (m * 8.0))
    signed = np.array([(-1) ** (m // 2) * a[m] for m in range(_HANKEL_MAX_TERMS + 1)])
    width = _HANKEL_MAX_TERMS // 2 + 1
    p = np.zeros((width, _HANKEL_BANDS.size))
    q = np.zeros((width, _HANKEL_BANDS.size))
    for i, edge in enumerate(_HANKEL_BANDS):
        n = _hankel_stop(order, float(edge))
        p[: n // 2 + 1, i] = signed[0 : n + 1 : 2]
        q[: (n + 1) // 2, i] = signed[1 : n + 1 : 2]
    return p, q


_HANKEL_COEFFS = (_hankel_band_coefficients(0), _hankel_band_coefficients(1))


def _horner(table: np.ndarray, band: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k table[k, band] z^k.  Leading zeros leave the sum bitwise
    unchanged (0 * z + c = c), so each element gets its own band's sum
    whatever degree the other elements need."""
    used = table[:, band.min() : band.max() + 1]
    degree = int(np.flatnonzero(used.any(axis=1)).max(initial=0))
    acc = table[degree][band]
    for k in range(degree - 1, -1, -1):
        acc *= z
        acc += table[k][band]
    return acc


def _hankel_j01(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J0 and J1 from the Hankel expansion, the number of terms taken from
    each element's x band."""
    # x below the first edge (only the branch checks ask) takes the first band
    band = np.maximum(np.searchsorted(_HANKEL_BANDS, xs, side="right") - 1, 0)
    z = 1.0 / (xs * xs)
    (p0, q0), (p1, q1) = _HANKEL_COEFFS
    omega = xs - 0.25 * math.pi
    cos_w = np.cos(omega)
    sin_w = np.sin(omega)
    amp = np.sqrt(2.0 / (math.pi * xs))
    # J1 has phase omega - pi/2: cos(omega - pi/2) = sin(omega)
    j0 = amp * (_horner(p0, band, z) * cos_w - _horner(q0, band, z) / xs * sin_w)
    j1 = amp * (_horner(p1, band, z) * sin_w + _horner(q1, band, z) / xs * cos_w)
    return j0, j1


def _bessel_miller(order: int, xs: np.ndarray) -> np.ndarray:
    """J_order for 0 < x < order: backward recurrence from J_N = 1, J_(N+1) = 0,
    normalised by 1 = J_0 + 2 sum_k J_2k (DLMF 3.6(vi), 10.12.4)."""
    j_next = np.zeros_like(xs)
    j_cur = np.ones_like(xs)
    norm = 2.0 * j_cur
    value = j_cur
    for k in range(_MILLER_START, 0, -1):
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


def _hankel_upward(order: int, xs: np.ndarray) -> np.ndarray:
    """J_order for x >= order: Hankel J0 and J1, then upward recurrence."""
    j_prev, j_cur = _hankel_j01(xs)
    if order == 0:
        return j_prev
    for k in range(1, order):
        j_prev, j_cur = j_cur, (2.0 * k) * j_cur / xs - j_prev
    return j_cur


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
    """The branch of bessel_j_array above the crossover."""
    return _by_mask(order, xs, xs < order, _bessel_miller, _hankel_upward)


def bessel_j_array(order: int, xs: np.ndarray) -> np.ndarray:
    """J_order elementwise, for 0 <= order <= 20 and x >= 0.

    Accuracy contract, tested against mpmath for every order on (0, 500]:
    absolute error at most 5e-12, and relative error at most 1e-10 where
    x < order.  Each value depends on (order, x) alone, never on the other
    elements of the array.
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
    (n/P = 0) together with the congruence n = 0 mod P. raw_zero is the
    uncalibrated value at n = 0; the calibration constant is its inverse,
    and every decomposition divides by raw_zero so the anchor is exact.
    """

    q_scale: float
    level: int
    bump: SmoothBump
    raw_zero: float | None = None

    def __post_init__(self):
        if self.q_scale <= 1:
            raise ValueError("Q must exceed 1")
        if self.level != 1 and not is_prime(self.level):
            raise ValueError("level must be 1 or a prime")

    @property
    def is_calibrated(self) -> bool:
        return self.raw_zero is not None

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
    g holds their weights.  The one q-loop of the delta symbol."""
    q_scale = scheme.q_scale
    ns_abs = np.abs(np.asarray(ns))
    ys = ns_abs / (scheme.level * q_scale * q_scale)
    for q in range(1, scheme.q_max(int(ns_abs.max(initial=0))) + 1):
        gvals = delta_weight_array(q / q_scale, ys, scheme.bump)
        live = np.flatnonzero(gvals)
        if live.size:
            yield q, live, gvals[live]


def _raw_plain_zero(scheme: DeltaScheme) -> float:
    """(1/Q^2) sum_q phi(q) g(q/Q, 0).  The n = 0 value of delta_decompose
    sums the same terms c_q(0) g(q/Q, 0) = phi(q) g(q/Q, 0), so the anchor
    is exact."""
    q_scale = scheme.q_scale
    phi_acc = _phi_cache(int(math.ceil(q_scale)) + 1)
    terms = [phi_acc[q] * float(g[0]) for q, _, g in _weight_columns(scheme, [0])]
    return math.fsum(terms) / (q_scale * q_scale)


@lru_cache(maxsize=16)
def _phi_cache(bound: int) -> tuple[int, ...]:
    from .arith import MultiplicativeTable

    return MultiplicativeTable(max(bound, 2)).phi


def calibrate(scheme: DeltaScheme) -> DeltaScheme:
    """Fix the calibration constant from the raw value at n = 0."""
    raw = _raw_plain_zero(scheme)
    if raw < 1e-3:
        raise CalibrationError(f"raw decomposition at n = 0 is {raw}; bump unusable")
    calibrated = replace(scheme, raw_zero=raw)
    window = 1.0 / scheme.q_scale
    if not (1.0 - window <= calibrated.c_q <= 1.0 + window):
        raise CalibrationError(
            f"calibration constant {calibrated.c_q} outside sanity window "
            f"for Q = {scheme.q_scale}"
        )
    return calibrated


def _row_sums(terms: np.ndarray, scale: float, scheme: DeltaScheme, shape: tuple):
    """The exactly rounded sum of each row of terms (one row per n, one
    column per q), divided by scale and then by raw_zero: a float for the
    shape () of a scalar n, else an array of that shape.  A zero term leaves
    an exactly rounded sum as it is."""
    out = np.array([math.fsum(row.tolist()) / scale / scheme.raw_zero for row in terms])
    return float(out[0]) if shape == () else out.reshape(shape)


def _decompose(n, scheme: DeltaScheme):
    """(1/(P Q^2 raw_zero)) sum_q P [P | n] c_q(n/P) g(q/Q, n/(P Q^2)) for
    each n, the body of both decompositions.  Only |n| enters."""
    if not scheme.is_calibrated:
        raise UncalibratedScheme("call calibrate() first")
    ns = np.asarray(n, dtype=np.int64)
    flat = np.abs(ns.ravel())
    terms = np.zeros((flat.size, scheme.q_max(int(flat.max(initial=0)))))
    for q, live, g in _weight_columns(scheme, flat):
        terms[live, q - 1] = coprime_residue_sum(q, scheme.level, flat[live]) * g
    return _row_sums(terms, scheme.level * scheme.q_scale * scheme.q_scale, scheme, ns.shape)


def delta_decompose(n, scheme: DeltaScheme):
    """Plain decomposition of the indicator [n = 0].

    (c_Q / Q^2) sum_q c_q(n) g(q/Q, n/Q^2), the a-sum collapsed to the
    Ramanujan sum.  n may be an int or an integer numpy array; the result is
    a float or a float64 array of the same shape, each value the same as the
    one-element call.  Exactly 1 at n = 0 after calibration; O(1e-12)
    roundoff otherwise.  The value at -n equals the value at n by
    construction: only |n| enters.
    """
    if scheme.level != 1:
        raise ValueError("plain decomposition requires a level-1 scheme")
    return _decompose(n, scheme)


@lru_cache(maxsize=512)
def _coprime_residues(q: int) -> tuple[int, ...]:
    return tuple(a for a in range(q) if math.gcd(a, q) == 1)


def congruence_average(n: int, level: int) -> complex:
    """(1/P) sum_{b mod P} e(n b / P): exactly 1 when P | n, 0 otherwise
    up to roundoff. This is the b-average that enforces the congruence in
    the conductor-lowered scheme."""
    return additive_orthogonality_sum(level, n, 0) / level


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


# panels evaluated together: their 15 x 15 meshes hold about _CHUNK elements
_PANELS_PER_PASS = max(1, _CHUNK // _K_NODES.size**2)


def _panel_rules(
    panels, a, b, order, g_x_arg, shift, p_q2, window, x_scale, y_scale, bump
):
    """GK15 x GK15 tensor rule on each row (x0, x1, y0, y1) of panels;
    returns the Kronrod values and the estimates |kronrod - gauss| as lists.
    Every array step is elementwise, so a panel's numbers do not depend on
    the other panels of the call."""
    x0, x1, y0, y1 = panels.T
    hx = 0.5 * (x1 - x0)
    hy = 0.5 * (y1 - y0)
    xs = (0.5 * (x1 + x0))[:, None] + hx[:, None] * _K_NODES
    ys = (0.5 * (y1 + y0))[:, None] + hy[:, None] * _K_NODES
    fx = window.fx.value_array(xs / x_scale)
    fy = window.fy.value_array(ys / y_scale)
    jx = bessel_j_array(order, 4.0 * math.pi * a * np.sqrt(xs))
    jy = bessel_j_array(order, 4.0 * math.pi * b * np.sqrt(ys))
    col = fx * jx / np.sqrt(xs)
    row = fy * jy / np.sqrt(ys)
    mesh = xs[:, :, None] - ys[:, None, :] + shift
    gvals = delta_weight_array(g_x_arg, mesh / p_q2, bump)
    integrand = col[:, :, None] * row[:, None, :] * gvals
    # C order, as the one-panel meshes had: matmul's order of adds follows
    # the strides, and fancy indexing leaves the panel axis innermost
    gauss = integrand[:, _G_INDEX][:, :, _G_INDEX].copy()
    values: list[float] = []
    errors: list[float] = []
    # one panel at a time: a stacked matmul adds in another order
    for hxi, hyi, k_mesh, g_mesh in zip(hx.tolist(), hy.tolist(), integrand, gauss):
        k_val = hxi * hyi * float(_K_WEIGHTS @ k_mesh @ _K_WEIGHTS)
        g_val = hxi * hyi * float(_G_WEIGHTS @ g_mesh @ _G_WEIGHTS)
        values.append(k_val)
        errors.append(abs(k_val - g_val))
    return values, errors


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
    max_depth: int = 12,
    max_panels: int = 40000,
) -> QuadratureResult:
    """The double integral of (xy)^(-1/2) F(x/X, y/Y)
    g(q c / Q, (x - y + rM)/(P Q^2)) J_order(4 pi a sqrt(x))
    J_order(4 pi b sqrt(y)) over the support box of F.

    Adaptive tensor Gauss-Kronrod with oscillation-aware pre-splitting at
    the Bessel zero spacing.  Subdivision goes one generation at a time:
    every panel of a depth is evaluated together, in passes of at most
    _PANELS_PER_PASS panels; a panel within its share of abs_tol (or at
    max_depth) is accepted, and each other panel splits into four for the
    next depth.  A panel's accept-or-split decision depends on that panel
    alone, so the tree of panels is the same in any traversal order, and
    the exactly rounded math.fsum makes the total independent of order too.

    NumericalFailure is raised when the tree would hold more than
    max_panels panels, before any panel past the budget is evaluated, or
    when the accepted errors add up to more than abs_tol.  For a budget
    overflow its value and error_estimate cover the accepted panels and
    the unresolved frontier (NaN and inf before the first generation).
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if abs_tol is None:
        abs_tol = (
            1e-9 * window.z_bound * math.sqrt(x_scale * y_scale) * q_cap / (q * c_scale)
        )
    g_x_arg = q * c_scale / q_cap
    p_q2 = level * q_cap * q_cap
    x_lo, x_hi = window.fx.lo * x_scale, window.fx.hi * x_scale
    y_lo, y_hi = window.fy.lo * y_scale, window.fy.hi * y_scale

    def initial_edges(lo, hi, freq, scale):
        if freq * math.sqrt(scale) <= 10.0:
            return [lo, hi]
        cycles = 2.0 * freq * (math.sqrt(hi) - math.sqrt(lo))
        n_panels = int(min(48, max(1, math.ceil(cycles / 2.0))))
        return list(np.linspace(lo, hi, n_panels + 1))

    ex = initial_edges(x_lo, x_hi, a, x_scale)
    ey = initial_edges(y_lo, y_hi, b, y_scale)
    area = (x_hi - x_lo) * (y_hi - y_lo)
    generation = np.array(
        [(x0, x1, y0, y1) for x0, x1 in zip(ex, ex[1:]) for y0, y1 in zip(ey, ey[1:])]
    )
    pieces: list[float] = []
    errs: list[float] = []
    # the unresolved frontier: the box itself until a generation is evaluated
    open_vals, open_errs = [math.nan], [math.inf]
    n_panels = 0
    depth = 0
    while generation.size:
        if n_panels + len(generation) > max_panels:
            value = math.fsum(pieces + open_vals)
            err_total = math.fsum(errs + open_errs)
            raise NumericalFailure(
                f"quadrature panel budget of {max_panels} exhausted at error "
                f"{err_total} (tolerance {abs_tol})",
                value,
                err_total,
            )
        n_panels += len(generation)
        vals, ests = [], []
        for start in range(0, len(generation), _PANELS_PER_PASS):
            v, e = _panel_rules(
                generation[start : start + _PANELS_PER_PASS], a, b, order, g_x_arg,
                r_shift, p_q2, window, x_scale, y_scale, bump,
            )
            vals += v
            ests += e
        x0, x1, y0, y1 = generation.T
        local_tol = abs_tol * np.maximum((x1 - x0) * (y1 - y0) / area, 1e-16)
        vals, ests = np.array(vals), np.array(ests)
        done = (ests <= local_tol) | (depth >= max_depth)
        pieces += vals[done].tolist()
        errs += ests[done].tolist()
        open_vals, open_errs = vals[~done].tolist(), ests[~done].tolist()
        x0, x1, y0, y1 = generation[~done].T
        xm = 0.5 * (x0 + x1)
        ym = 0.5 * (y0 + y1)
        quads = [(x0, xm, y0, ym), (x0, xm, ym, y1), (xm, x1, y0, ym), (xm, x1, ym, y1)]
        generation = np.array(quads).transpose(2, 0, 1).reshape(-1, 4)
        depth += 1
    value = math.fsum(pieces)
    err_total = math.fsum(errs)
    if err_total > abs_tol:
        raise NumericalFailure(
            f"quadrature stalled at error {err_total} (tolerance {abs_tol})",
            value,
            err_total,
        )
    return QuadratureResult(value, err_total, n_panels)
