"""Analytic kernels: smooth bumps, J-Bessel evaluation, the delta-symbol
decomposition with and without conductor lowering, and the oscillatory
double integral that appears after dual summation.

Numerical conventions, fixed for reproducibility:

- the q-sum of the decompositions goes through math.fsum (exactly
  rounded); the a- and b-sums are the exact integer closed form
  P [P | n] c_q(n/P); the delta weight of modulus q is row q of one table
  over m = q j at x0 = fl(1/Q): C_q = sum_j A_qj added from 0 in j order,
  then each B_qj(y) subtracted in j order;
- a scheme's raw_zero is the decomposition's own raw sum at n = 0, taken
  with the level-1 gamma-sum c_q(0) = phi(q) at every level, and is fixed
  when the scheme is built: at y = 0 no B_m is nonzero, so it is
  fsum_q phi(q) C_q / Q^2 over q <= Q.  Every decomposition value is its
  raw sum divided by raw_zero, so the plain anchor is exactly 1;
- every integral is taken in u = sqrt(y), where the Bessel phase is
  linear, by one fixed rule, _sqrt_trapezoid_rule, its step set by the
  largest frequency and the bump's edge: the pipeline's Voronoi dual
  integrals, a SmoothBump's normalization and, on each axis, the double
  integral, whose error estimate is its distance from every other node.
  Nothing adapts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .arith import LIMIT, is_prime
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
    "bessel_j_sums",
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

# the least sharpness s of an integral-normalized bump: its normalization
# takes ln(2^53)^2 / (2 pi s) trapezoid nodes, 2.2e5 here
_SHARPNESS_FLOOR = 2.0**-10


@dataclass(frozen=True)
class SmoothBump:
    """C-infinity bump on (lo, hi): scale * exp(-s / (u (1 - u))) in the
    normalized coordinate u = (x - lo)/(hi - lo).

    normalization "integral" rescales so the integral over the line equals
    target (within 1e-15 relative up to s = 10; s >= 2^-10); "peak" rescales
    the maximum to target. The sharpness s controls how concentrated the bump
    is; distinct sharpness values give genuinely distinct test functions.
    """

    lo: float
    hi: float
    sharpness: float = 1.0
    normalization: str = "integral"
    target: float = 1.0

    def __post_init__(self):
        if not (self.lo < self.hi and math.isfinite(self.hi - self.lo)):
            raise ValueError(f"need lo < hi and hi - lo finite, got [{self.lo}, {self.hi}]")
        if not 0 < self.sharpness < math.inf:
            raise ValueError(f"sharpness {self.sharpness} must be positive and finite")
        if self.normalization not in ("integral", "peak"):
            raise ValueError("normalization must be 'integral' or 'peak'")
        if self.normalization == "integral" and self.sharpness < _SHARPNESS_FLOOR:
            raise ValueError(f"sharpness {self.sharpness} is below the floor {_SHARPNESS_FLOOR}")
        # at scale 1.0 value_array is the unscaled template (1.0 * v == v)
        object.__setattr__(self, "_scale", 1.0)
        object.__setattr__(self, "_scale", self._compute_scale())

    def _compute_scale(self) -> float:
        # the peak, or the integral by the bump integrals' rule at frequency 0 on
        # [0, hi - lo], sharpness capped at 1 (enough nodes for a sharp interior)
        if self.normalization == "peak":
            norm = math.exp(-4.0 * self.sharpness)
        else:
            s = min(1.0, self.sharpness)
            us, weights = _sqrt_trapezoid_rule(0.0, self.hi - self.lo, 0.0, s)
            norm = math.fsum((weights * self.value_array(self.lo + us * us)).tolist())
        if not (norm > 0 and math.isfinite(self.target / norm)):
            raise ValueError(f"sharpness {self.sharpness}, target {self.target}: no finite scale")
        return self.target / norm

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
        # off (0, 1) the quotient may divide by 0 or exp overflow; where drops it
        with np.errstate(divide="ignore", over="ignore"):
            values = self._scale * np.exp(-self.sharpness / (u * (1.0 - u)))
        return np.where((u > 0.0) & (u < 1.0), values, 0.0)

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
# J-Bessel evaluation in three regimes: the power series up to the crossover
# x = 12; Miller's backward recurrence from there up to the order's Hankel
# edge X_order; the order's own Hankel expansion from X_order on, with the
# number of terms it takes at X_order and its phase from one tan(x/2) per
# element; and weighted sums of J over one set of nodes at many scales
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
def _hankel_terms(order: int) -> tuple[float, np.ndarray]:
    """The order's Hankel edge X_order, and the coefficients in z = 1/x^2
    of P and of x Q as the two rows of one read-only array, highest power
    first: P = sum_k (-1)^k a_2k z^k and Q = x^-1 sum_k (-1)^k a_(2k+1) z^k,
    with a_m = prod_(j <= m) (4 order^2 - (2j - 1)^2) / (8 j).  When P has
    one term more, Q's row starts with 0.0, which leaves its Horner sum
    exact.

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
    p, q = signed[0::2][::-1], signed[1::2][::-1]
    coeffs = np.array([p, [0.0] * (len(p) - len(q)) + q])
    coeffs.flags.writeable = False
    return edge, coeffs


def _hankel_edge(order: int) -> float:
    """X_order, where the Hankel expansion takes over from Miller."""
    return _hankel_terms(order)[0]


def _miller_start(order: int) -> int:
    """Where Miller's recurrence starts for the order: the first even N at
    least 48 above X_order, and at least 64.  J_N(x) / Y_N(x), which sets
    the error the start leaves, is then below 1e-26 for every order and
    every x < X_order."""
    return max(64, 2 * math.ceil((_hankel_edge(order) + 48.0) / 2.0))


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
    phase is never rounded.  P and x Q run as one Horner pass in
    z = 1 / x^2 over the two rows of _hankel_terms."""
    coeffs = _hankel_terms(order)[1]
    z = 1.0 / (xs * xs)
    pq = coeffs[:, :1]
    for k in range(1, coeffs.shape[1]):
        pq = pq * z + coeffs[:, k : k + 1]
    big_p, big_q = pq[0], pq[1] / xs
    c, s = _HANKEL_PHASE[order % 4]
    a = c * big_p + s * big_q
    b = s * big_p - c * big_q
    t = np.tan(xs * 0.5)
    return ((1.0 - t * t) * a + b * (2.0 * t)) / ((t * t + 1.0) * np.sqrt(xs * math.pi))


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
    x >= X_order, P and x Q from one Horner pass over the order's fixed
    coefficients and one tan(x/2) per element, the phase x unrounded.
    X_order is the lowest point of a 20 * 2^(k/4) grid at which the order's
    truncated Hankel sum ends on a term below 1e-17 (23.8 for orders up to
    9, rising to 113.1 at order 20), and the sum keeps that number of terms
    above it; Miller starts from the first even N at least 48 above
    X_order, and at least 64.  Each branch takes a chunk of _CHUNK arguments
    whole when every argument falls in it, with no masked copy.

    Accuracy contract, tested against mpmath for every order: absolute
    error at most 5e-12 on (0, 2e4], at most 1e-15 on [X_order, 2e4], and
    relative error at most 1e-10 where x < order.  Each value depends on
    (order, x) alone, never on the other elements of the array, and xs is
    only read: perfbench's Bessel meter counts the arguments after the call.
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


# Bessel arguments per slab of bessel_j_sums: a slab and the temporaries on it
# stay near 1 MB however many nodes there are
_SLAB = 1 << 14


def bessel_j_sums(
    order: int, scales: np.ndarray, us: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """sum_j w_j J_order(s u_j) for each s in the ascending positive array
    scales and each row w of the 2-D array weights, over the ascending
    positive nodes us: an array of shape (rows of weights, scales).

    Rows with s u_0 >= X_order have every argument on the Hankel side, and
    the order's expansion is summed by powers.  With (c, s') from
    _HANKEL_PHASE, p_k and q_k the two rows of _hankel_terms read from the
    lowest power, J = (A cos x + B sin x) / sqrt(pi x) where
    A = sum_m alpha_m x^-m and B = sum_m beta_m x^-m, alpha_2k = c p_k,
    alpha_(2k+1) = s' q_k, beta_2k = s' p_k and beta_(2k+1) = -c q_k.  As
    x = s u_j,

        sum_j w_j J(s u_j) = (pi s)^(-1/2) sum_(m < M) s^-m (C V^c_m + S V^s_m),

    with C, S the cosines and sines of s u_j and V^c_m[j] =
    alpha_m w_j u_j^(-m-1/2) (V^s_m with beta_m).  M is one more than the
    stop rule's count at the smallest such argument, at most the edge's own
    count: 6 to 15 terms from x = 100 on.  Each slab of k rows takes one
    tan of s u / 2 (x / 2 exact), cos and sin as (1 - t^2, 2 t) / (1 + t^2)
    in one (2 nodes, k) buffer, cosines over sines, one product of each
    weight row's (M, 2 nodes) matrix with that buffer, and Horner in 1 / s.

    The rows below the edge, a prefix, take bessel_j_array on their slab
    and one product per weight row.  A value depends on its own row of
    weights alone, never on the other rows.

    Memory: one slab of at most _SLAB arguments (one row if a row is
    longer), its cos/sin buffer, and the (M, 2 nodes) matrix of each weight
    row; never a (scales, nodes) block.

    Contract, against one bessel_j_array matrix times the weights: within
    1e-16 sum_j |w_j| of that product on seeded scales straddling X_order
    for every order (2.6e-17 measured), and within 2e-15 absolute on the
    Voronoi dual side's trapezoid-rule blocks (3.7e-16 measured on the
    tested blocks, 8.9e-16 over every block of the q <= 3 solves).
    """
    scales = np.asarray(scales, dtype=float)
    us = np.asarray(us, dtype=float)
    weights = np.asarray(weights, dtype=float)
    out = np.empty((weights.shape[0], scales.size))
    nodes = us.size
    rows = max(1, _SLAB // nodes)
    edge = _hankel_edge(order)
    below = int(np.count_nonzero(scales * us[0] < edge))
    for r0 in range(0, below, rows):
        r1 = min(r0 + rows, below)
        jvals = bessel_j_array(order, np.multiply.outer(scales[r0:r1], us))
        for w, row in zip(weights, out):
            row[r0:r1] = jvals @ w
    if below == scales.size:
        return out

    p, q = _hankel_terms(order)[1][:, ::-1]
    terms = np.ravel([p, q], order="F")  # p_0, q_0, p_1, q_1, ...
    count = min(1 + _hankel_stop(order, float(scales[below] * us[0]))[0], terms.size)
    c, s = _HANKEL_PHASE[order % 4]
    even = np.arange(count) % 2 == 0
    alpha = np.where(even, c, s) * terms[:count]
    beta = np.where(even, s, -c) * terms[:count]
    powers = np.empty((count, nodes))  # u^(-m-1/2)
    powers[0] = 1.0 / np.sqrt(us)
    inv_u = 1.0 / us
    for m in range(1, count):
        np.multiply(powers[m - 1], inv_u, out=powers[m])
    mats = []
    for w in weights:
        wp = w * powers
        mats.append(np.concatenate([alpha[:, None] * wp, beta[:, None] * wp], axis=1))

    half_us = 0.5 * us
    buf = np.empty(2 * nodes * rows)
    denom = np.empty(nodes * rows)
    for r0 in range(below, scales.size, rows):
        r1 = min(r0 + rows, scales.size)
        k = r1 - r0
        # (2 nodes, k) rather than (k, 2 nodes): each half is contiguous,
        # which the ufuncs below run on at about 60% of the time
        slab = buf[: 2 * nodes * k].reshape(2 * nodes, k)
        cos, sin = slab[:nodes], slab[nodes:]
        den = denom[: nodes * k].reshape(nodes, k)
        np.multiply.outer(half_us, scales[r0:r1], out=sin)
        np.tan(sin, out=sin)
        np.multiply(sin, sin, out=cos)
        np.add(cos, 1.0, out=den)
        np.subtract(1.0, cos, out=cos)
        cos /= den
        sin *= 2.0
        sin /= den
        inv_s = 1.0 / scales[r0:r1]
        root = np.sqrt(math.pi * scales[r0:r1])
        for mat, row in zip(mats, out):
            by_power = mat @ slab  # row m: the m-th term summed over the nodes
            acc = by_power[-1].copy()
            for m in range(count - 2, -1, -1):
                acc *= inv_s
                acc += by_power[m]
            row[r0:r1] = acc / root
    return out


# ---------------------------------------------------------------------------
# The delta-symbol weight and decomposition
# ---------------------------------------------------------------------------

# relative widening of the bump's support when bisecting for the band of
# |y| it can reach: far above the few ulps a quotient |y| / (m x) can move
_BAND_MARGIN = 1e-9
# values of B_m per evaluation: the bump holds about eight temporaries of
# this length, so a wide band goes in pieces
_BAND_PIECE = 1 << 12


def _column_sums(a: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """C_k = sum_j a[k j - 1] over the j with k j <= a.size, for each k of
    ks, added from 0 in j order: one zero-padded (rows, j) table of the
    terms, summed along j by np.cumsum in blocks of at most _CHUNK cells
    (one row if a row is longer).  The padding comes after a row's last
    term and every term is >= 0, so each C_k is the same float as the sum
    of its own terms alone."""
    # padded[m] = a[m - 1]; a clipped index m > a.size reads the last 0
    padded = np.concatenate(([0.0], a, [0.0]))
    # k past a.size has no term; the cap also keeps k j inside int64
    caps = np.minimum(ks, a.size + 1)
    counts = a.size // caps
    sums = np.zeros(ks.size)
    first = 0
    while first < ks.size:
        widest = np.maximum.accumulate(counts[first : first + _CHUNK])
        rows = max(1, int(np.count_nonzero(widest * np.arange(1, widest.size + 1) <= _CHUNK)))
        width = int(widest[rows - 1])
        if width:
            cells = np.multiply.outer(caps[first : first + rows], np.arange(1, width + 1))
            table = np.take(padded, cells, mode="clip")
            sums[first : first + rows] = np.cumsum(table, axis=1)[:, -1]
        first += rows
    return sums


def _band_pieces(bands):
    """The (start, stop, m) bands, in their order, packed into pieces
    (lists of such slices) of at most _BAND_PIECE values each; a band is
    split where a piece fills."""
    piece: list[tuple[int, int, int]] = []
    filled = 0
    for start, stop, m in bands:
        while start < stop:
            take = min(stop - start, _BAND_PIECE - filled)
            piece.append((start, start + take, m))
            filled += take
            start += take
            if filled == _BAND_PIECE:
                yield piece
                piece, filled = [], 0
    if piece:
        yield piece


def delta_weight_array(
    x: float, ys: np.ndarray, bump: SmoothBump, multiples=None
) -> np.ndarray:
    """g(x, y) = sum_{j >= 1} (x j)^-1 (w(x j) - w(|y| / (x j))) at one
    x > 0, for every y in ys.  With multiples, a sequence of integers
    k >= 1, it returns the rows g(k x, y), one per k, stacked to shape
    (len(multiples),) + ys.shape: range(1, K + 1) gives rows 1..K.

    w is the scheme bump supported in [1/2, 1]; the sum is finite because
    both arguments leave the support once j > max(1, 2|y|)/x, and g is 0
    whenever x > max(1, 2|y|).  The term depends on (k, j) only through
    m = k j: with A_m = w(m x) / (m x) and B_m(y) = w(|y| / (m x)) / (m x),
    row k is C_k - sum_j B_kj(y), where C_k = sum_j A_kj is added from 0 in
    j order and the B_kj are then subtracted in j order; the row is set to
    0 where k x > max(1, 2|y|).  Each value depends on (k, x, y) alone,
    never on the other elements of ys or the other rows.

    Accuracy contract, tested against mpmath at 30 digits with the bump's
    own scale, at exact k x for k x in [0.02, 3], |y| <= 3 and sharpness
    0.25, 0.5 and 1: k x |g - g_exact| <= 1e-14.

    B_m is evaluated only on its band of |y| in (lo m x, hi m x): the
    bump's support (lo, hi), widened by a relative _BAND_MARGIN, found for
    every m by one bisection in |y| taken in ascending order.  When |y|
    (ys flattened) already ascends, as on the shifted sum's grid, it is
    used as it is; any other |y| is argsorted once and the rows are
    scattered to their places at the end.  The bump's own strict test
    still decides membership and B_m is 0 off the band, so every value is
    the one a pass over the whole array gives.  All C_k come from one
    table (_column_sums).  The bands the call reaches, m ascending over
    the multiples of its k, are packed into pieces of at most _BAND_PIECE
    values, each piece one value_array call on the quotients |y| / (m x)
    followed by a division by m x, element by element as each B_m alone
    would take them.  Each band is then subtracted, in ascending m, which
    is each row's j order, from every row whose k divides m.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    ks = np.asarray(1 if multiples is None else multiples, dtype=np.int64).reshape(-1)
    if np.any(ks < 1):
        raise ValueError("multiples must be positive integers")
    ys_abs = np.abs(np.asarray(ys, dtype=float))
    flat = ys_abs.ravel()
    # each band is a slice of |y| in ascending order (a NaN is never ascending)
    order = None if np.all(flat[1:] >= flat[:-1]) else np.argsort(flat)
    ordered = flat if order is None else flat[order]
    # A_m for m x < hi, and B_m, which reaches |y| only for lo m x < max |y|
    m_x = np.arange(1, int(bump.hi / x) + 2) * x
    rows = np.empty((ks.size, ordered.size))
    rows[...] = _column_sums(bump.value_array(m_x) / m_x, ks)[:, None]
    m_top = int(ordered[-1] / (bump.lo * x)) + 2 if ordered.size else 0
    margin = _BAND_MARGIN * max(abs(bump.lo), abs(bump.hi))
    edges = np.array([bump.lo - margin, bump.hi + margin])
    starts, stops = np.searchsorted(
        ordered, np.multiply.outer(edges, np.arange(1, m_top + 1) * x)
    ).tolist()
    # the rows each m reaches: those whose k divides it
    reach: dict[int, list[int]] = {}
    for i, k in enumerate(ks.tolist()):
        for m in range(k, m_top + 1, k):
            reach.setdefault(m, []).append(i)
    quotients = np.empty(_BAND_PIECE)
    for piece in _band_pieces((starts[m - 1], stops[m - 1], m) for m in sorted(reach)):
        at = 0
        for lo, hi, m in piece:
            np.divide(ordered[lo:hi], m * x, out=quotients[at : at + hi - lo])
            at += hi - lo
        values = bump.value_array(quotients[:at])
        at = 0
        for lo, hi, m in piece:
            b_m = values[at : at + hi - lo]
            b_m /= m * x
            for i in reach[m]:
                rows[i, lo:hi] -= b_m
            at += hi - lo
    for i, k in enumerate(ks.tolist()):
        if k * x > 1.0:
            # k x > max(1, 2|y|): the |y| below k x / 2, a prefix
            rows[i, : np.searchsorted(ordered, 0.5 * (k * x))] = 0.0
    if order is not None:
        scattered = np.empty_like(rows)
        scattered[:, order] = rows
        rows = scattered
    if multiples is None:
        return rows[0].reshape(ys_abs.shape)
    return rows.reshape(ks.shape + ys_abs.shape)


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
        if self.level != 1 and not (self.level < LIMIT and is_prime(self.level)):
            raise ValueError(f"level P {self.level} must be 1 or a prime below 2^31")
        object.__setattr__(self, "raw_zero", calibrate(self))

    @property
    def c_q(self) -> float:
        """The calibration constant c_Q = 1 / raw_zero."""
        return 1.0 / self.raw_zero

    def q_max(self, n: int) -> int:
        """Largest modulus with a nonzero weight for this n."""
        return _q_max(self.q_scale, self.level, n)


def _q_max(q_scale: float, level: int, n: int) -> int:
    """ceil(Q max(1, 2 |n| / (P Q^2))): past it g(q/Q, n/(P Q^2)) is 0."""
    q2 = q_scale * q_scale
    return int(math.ceil(q_scale * max(1.0, 2.0 * abs(n) / (level * q2))))


def _weight_columns(scheme: DeltaScheme, ns):
    """(q, live, g) for each q in 1..q_max(max n) whose weight
    g(q x0, n/(P Q^2)), x0 = fl(1/Q), is nonzero at some n of ns: live
    indexes those n and g holds their weights.  A row nonzero at every n
    has live = slice(None) and g over the whole of ns, with no index list.
    The one q-loop of the delta symbol.

    ns is a strictly ascending grid of nonnegative integers, such as the
    distinct |n| of a decomposition or the shifted sum's grid of u = |t|;
    any other grid raises ValueError.  The weight is evaluated on it as it
    stands, as the rows of one delta_weight_array call per block of q, each
    block at most _CHUNK values."""
    ns = np.asarray(ns)
    ascending = ns.ndim == 1 and np.all(ns[1:] > ns[:-1])
    if not (np.issubdtype(ns.dtype, np.integer) and ascending and np.all(ns[:1] >= 0)):
        raise ValueError("the weight's grid must be strictly ascending nonnegative integers")
    q_scale = scheme.q_scale
    ys = ns / (scheme.level * q_scale * q_scale)
    q_top = scheme.q_max(int(ns[-1]) if ns.size else 0)
    block = max(1, _CHUNK // max(1, ys.size))
    for first in range(1, q_top + 1, block):
        qs = range(first, min(first + block, q_top + 1))
        rows = delta_weight_array(1.0 / q_scale, ys, scheme.bump, multiples=qs)
        for q, row in zip(qs, rows):
            if row.all():
                live, gvals = slice(None), row
            else:
                live = np.flatnonzero(row)
                gvals = row[live]
            if gvals.size:
                yield q, live, gvals


# phi(q) for 0 <= q <= bound: c_q(0) in the calibration
@lru_cache(maxsize=16)
def _phi_cache(bound: int) -> tuple[int, ...]:
    from .arith import MultiplicativeTable

    return MultiplicativeTable(max(bound, 2)).phi


def _raw_sums(scheme: DeltaScheme, flat: np.ndarray, level: int) -> np.ndarray:
    """(1/(P Q^2)) sum_q P [P | n] c_q(n/P) g(q x0, n/(P_s Q^2)) for each
    n >= 0 of flat, one math.fsum per distinct n, with P_s the scheme's
    level and P the gamma-sum's: P_s for both decompositions, 1 for the
    calibration."""
    distinct, inverse = np.unique(flat, return_inverse=True)
    top = int(distinct[-1]) if distinct.size else 0
    terms = np.zeros((distinct.size, scheme.q_max(top)))
    for q, live, g in _weight_columns(scheme, distinct):
        # the gamma-sum has period qP in n: one table of it over the
        # residues an n <= top can leave, one residue per n
        table = coprime_residue_sum(q, level, np.arange(min(q * level, top + 1)))
        terms[live, q - 1] = table[distinct[live] % (q * level)] * g
    scale = level * scheme.q_scale * scheme.q_scale
    sums = np.array([math.fsum(row.tolist()) / scale for row in terms])
    return sums[inverse]


def calibrate(scheme: DeltaScheme) -> float:
    """raw_zero, the raw decomposition at n = 0, for DeltaScheme to store:
    Q^-2 fsum_q phi(q) g(q x0, 0), the terms of _raw_sums(scheme, [0], 1)
    with c_q(0) = phi(q), so at P = 1 it is the plain decomposition's own
    raw sum at n = 0 and the anchor is exact; CalibrationError if the bump
    makes it unusable."""
    phi = _phi_cache(scheme.q_max(0))
    columns = _weight_columns(scheme, np.zeros(1, dtype=np.int64))
    raw = math.fsum([phi[q] * float(g[0]) for q, _, g in columns])
    raw /= scheme.q_scale * scheme.q_scale
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
    # the rule's cells: trapezoid steps on x times steps on y
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


# ln(2^53): where exp(-x) reaches float64's unit roundoff
_LN_ULP = 53.0 * math.log(2.0)


def _sqrt_trapezoid_rule(
    lo: float, hi: float, frequency: float, sharpness: float
) -> tuple[np.ndarray, np.ndarray]:
    """The rule of every integral in the package, int g(y) J(s sqrt(y)) dy
    for a SmoothBump g on [lo, hi] with at least the given sharpness and
    every s <= frequency: the trapezoid rule in u = sqrt(y).  It has three
    callers: pipeline._dual_integrals; SmoothBump's normalization, at
    frequency 0 on [0, hi - lo], N = ceil(ln(2^53)^2 / (2 pi sharpness));
    and double_bessel_integral on each axis.  There the delta weight's
    factor is not band-limited, so the margin below does not cover it, and
    the integral's nested estimate guards it.

    The integrand 2 u g(u^2) J(s u) vanishes to all orders at both ends and
    J(s u) is band-limited to |omega| <= s, so the rule's error is the
    bump's Fourier transform aliased to 2 pi / step - s, at least a margin
    Omega.  The right edge is the slower one: there g(u^2) ~
    exp(-beta / (sqrt(hi) - u)), beta = sharpness (hi - lo) / (2 sqrt(hi)),
    whose transform decays like exp(-sqrt(2 beta omega)), so
    Omega = ln(2^53)^2 / (2 beta) puts the error at float64's unit
    roundoff (119 at sharpness 1 on [40, 200]).  The rule takes
    N = ceil((sqrt(hi) - sqrt(lo)) (frequency + Omega) / 2 pi) steps and
    nodes u_j = sqrt(lo) + j step for j = 1 .. N - 1, with no endpoint
    terms, where the integrand vanishes.

    Returns the nodes u and the weights 2 u step:
    int g(y) J(s sqrt(y)) dy ~ sum weights g(u^2) J(s u)."""
    root_lo, root_hi = math.sqrt(lo), math.sqrt(hi)
    beta = sharpness * (hi - lo) / (2.0 * root_hi)
    omega = _LN_ULP * _LN_ULP / (2.0 * beta)
    steps = math.ceil((root_hi - root_lo) * (frequency + omega) / (2.0 * math.pi))
    step = (root_hi - root_lo) / steps
    us = root_lo + step * np.arange(1, steps)
    return us, 2.0 * step * us


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
) -> QuadratureResult:
    """The double integral of (xy)^(-1/2) F(x/X, y/Y)
    g(q c / Q, (x - y + rM)/(P Q^2)) J_order(4 pi a sqrt(x))
    J_order(4 pi b sqrt(y)) over the support box of F.

    In u = sqrt(x), v = sqrt(y) it is 4 int int fx(u^2/X) fy(v^2/Y)
    g(q c / Q, (u^2 - v^2 + rM)/(P Q^2)) J_order(4 pi a u) J_order(4 pi b v)
    du dv, and both Bessel phases are linear.  Each axis takes
    _sqrt_trapezoid_rule at frequency 4 pi a (4 pi b on y) and sharpness
    min(1, fx.sharpness) (fy on y), and the weight is one
    delta_weight_array call on the tensor mesh: the value is col @ g @ row
    with per-axis factors (weights / u) f(u^2/scale) J(4 pi freq u).

    The delta weight's factor is not band-limited, so the rule's margin
    does not cover it; error_estimate is the distance from every other
    node of each axis, weights doubled, itself a trapezoid rule because
    the integrand vanishes to all orders at both ends.  panels counts the
    rule's cells, steps on x times steps on y.

    NumericalFailure, carrying the value and the estimate, is raised when
    the estimate exceeds 1e-9 z_bound sqrt(XY) Q / (q c).
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    tol = 1e-9 * window.z_bound * math.sqrt(x_scale * y_scale) * q_cap / (q * c_scale)

    def axis(f, scale, freq):
        """Squared nodes and weighted factors (weights / u) f(u^2/scale)
        J(4 pi freq u) on one axis."""
        frequency = 4.0 * math.pi * freq
        us, weights = _sqrt_trapezoid_rule(
            f.lo * scale, f.hi * scale, frequency, min(1.0, f.sharpness)
        )
        xs = us * us
        jvals = bessel_j_array(order, frequency * us)
        return xs, weights / us * f.value_array(xs / scale) * jvals

    xs, col = axis(window.fx, x_scale, a)
    ys, row = axis(window.fy, y_scale, b)
    mesh = (xs[:, None] - ys[None, :] + r_shift) / (level * q_cap * q_cap)
    gvals = delta_weight_array(q * c_scale / q_cap, mesh, bump)
    value = float(col @ gvals @ row)
    estimate = abs(value - 4.0 * float(col[1::2] @ gvals[1::2, 1::2] @ row[1::2]))
    if not estimate <= tol:
        raise NumericalFailure(
            f"quadrature error estimate {estimate} exceeds tolerance {tol}",
            value,
            estimate,
        )
    return QuadratureResult(value, estimate, (xs.size + 1) * (ys.size + 1))
