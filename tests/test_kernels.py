import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from deltasum import kernels, verify
from deltasum.pipeline import default_delta_bump, default_window, shifted_sum_delta


# ---------------------------------------------------------------------------
# bumps
# ---------------------------------------------------------------------------


def test_bump_support_and_normalization():
    w = kernels.SmoothBump(0.5, 1.0, sharpness=0.5)
    assert w(0.5) == 0.0 and w(1.0) == 0.0 and w(0.4) == 0.0 and w(1.2) == 0.0
    assert w(0.75) > 0
    # independent normalization oracle: Simpson on a fine grid
    xs = np.linspace(0.5, 1.0, 20001)
    vals = w.value_array(xs)
    simpson = (xs[1] - xs[0]) / 3 * (
        vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum()
    )
    assert abs(simpson - 1.0) < 1e-8


def _unit_bump_integral(mpmath, sharpness: float, dps: int):
    """int_0^1 exp(-s / (u (1 - u))) du by mpmath at dps digits.  With
    u = (1 + tanh x) / 2 it is exp(-4 s) int_0^oo exp(-4 s sinh(x)^2)
    / cosh(x)^2 dx, a peak of width w = 1 / sqrt(8 s) at x = 0, split at w,
    2w and 4w and cut where it falls below exp(-256)."""
    with mpmath.workdps(dps):
        s = mpmath.mpf(sharpness)
        w = 1 / mpmath.sqrt(8 * s)
        cuts = [0, w, 2 * w, 4 * w, mpmath.asinh(mpmath.sqrt(64 / s))]
        integral = mpmath.quad(
            lambda x: mpmath.exp(-4 * s * mpmath.sinh(x) ** 2) / mpmath.cosh(x) ** 2, cuts
        )
        return mpmath.exp(-4 * s) * integral


def test_bump_integrates_to_its_target():
    """Every integral-normalized bump integrates to its target within 1e-15
    relative, sharp ones too: the integral of scale w over [lo, hi] is
    scale (hi - lo) times the unit-interval integral.  The sharpest
    reference is checked against 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    sharpnesses = (0.05, 0.25, 0.5, 1.0, 1.7, 4.0, 10.0)
    refs = {s: _unit_bump_integral(mpmath, s, 30) for s in sharpnesses}
    with mpmath.workdps(60):
        assert abs(refs[10.0] / _unit_bump_integral(mpmath, 10.0, 50) - 1) < 1e-25
    worst = 0.0
    for lo, hi in ((0.5, 1.0), (0.5, 2.5), (40.0, 200.0), (-1.0, 1.0)):
        for s in sharpnesses:
            bump = kernels.SmoothBump(lo, hi, sharpness=s)
            with mpmath.workdps(30):
                integral = mpmath.mpf(bump._scale) * (hi - lo) * refs[s]
                worst = max(worst, float(abs(integral - 1)))
    assert worst <= 1e-15, worst


@pytest.mark.parametrize(
    "args,message",
    [
        ((0.0, math.inf, 1.0, "peak"), "finite"),
        ((-math.inf, 1.0, 1.0, "integral"), "finite"),
        ((math.nan, 1.0, 1.0, "integral"), "lo < hi"),
        ((1.0, 1.0, 1.0, "peak"), "lo < hi"),
        ((-1e308, 1e308, 1.0, "peak"), "finite"),
        ((0.5, 1.0, 1.0, "integral", math.nan), "target nan"),
        ((0.5, 1.0, 1.0, "peak", math.inf), "target inf"),
        ((0.5, 1.0, 2.0**-11, "integral"), "below the floor 0.0009765625"),
        ((0.5, 1.0, 180.0, "peak"), "180.0, target 1.0: no finite scale"),
        ((0.5, 1.0, 200.0, "peak"), "200.0, target 1.0: no finite scale"),
        ((0.5, 1.0, 180.0, "integral"), "180.0, target 1.0: no finite scale"),
    ],
)
def test_bump_rejects_bad_input(args, message):
    """Infinite or NaN endpoints, an infinite width, a non-finite target, an
    integral-normalized sharpness below the floor 2^-10 and a peak or
    integral that underflows each raise one ValueError at construction."""
    with pytest.raises(ValueError, match=message):
        kernels.SmoothBump(*args)


def test_bump_sharpness_floor_is_integral_only():
    """The floor is the node count of the normalization: at the floor the
    bump still builds, and a peak-normalized bump needs no integral."""
    at_floor = kernels.SmoothBump(0.5, 1.0, sharpness=2.0**-10)
    assert math.isfinite(at_floor._scale) and at_floor._scale > 0
    assert kernels.SmoothBump(0.5, 1.0, 1e-6, "peak")(0.75) == pytest.approx(1.0)


def test_bump_peak_normalization():
    h = kernels.SmoothBump(0.5, 2.5, sharpness=1.0, normalization="peak")
    assert h(1.5) == pytest.approx(1.0)
    xs = np.linspace(0.5, 2.5, 1001)
    assert float(h.value_array(xs).max()) <= 1.0 + 1e-12


def test_bump_derivative_matches_finite_difference():
    w = kernels.SmoothBump(0.5, 1.0, sharpness=0.5)
    for x in (0.6, 0.75, 0.9):
        fd = (w(x + 1e-6) - w(x - 1e-6)) / 2e-6
        assert w.derivative(x) == pytest.approx(fd, rel=1e-5, abs=1e-8)


_CONTRACT_BUMPS = [
    kernels.SmoothBump(lo, hi, sharpness=s, normalization=norm)
    for lo, hi, norm in ((0.5, 1.0, "integral"), (0.5, 2.5, "peak"), (40.0, 200.0, "peak"))
    for s in (0.25, 0.5, 1.0)
]


@st.composite
def _bump_points(draw):
    """A contract bump and a point of its support: anywhere, or within
    1e-12 of either edge."""
    bump = draw(st.sampled_from(_CONTRACT_BUMPS))
    where = draw(st.sampled_from(("inside", "lower", "upper")))
    if where == "inside":
        x = bump.lo + draw(st.floats(0.0, 1.0)) * (bump.hi - bump.lo)
    elif where == "lower":
        x = bump.lo + draw(st.floats(0.0, 1e-12))
    else:
        x = bump.hi - draw(st.floats(0.0, 1e-12))
    return bump, x


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_bump_points())
def test_bump_value_array_matches_mpmath(point):
    """The accuracy contract of SmoothBump.value_array: |w - w_exact| <=
    2 eps (1 + E) (1 + E / s) w_exact + scale * 2^-1022, E = s / (u (1 - u))."""
    mpmath = pytest.importorskip("mpmath")
    bump, x = point
    value = float(bump.value_array(np.array([x]))[0])
    with mpmath.workdps(30):
        u = (mpmath.mpf(x) - bump.lo) / (mpmath.mpf(bump.hi) - bump.lo)
        if not 0 < u < 1:
            assert value == 0.0
            return
        e = bump.sharpness / (u * (1 - u))
        exact = mpmath.mpf(bump._scale) * mpmath.exp(-e)
        err = float(abs(value - exact))
    e, eps = float(e), 2.0**-53
    bound = 2 * eps * (1 + e) * (1 + e / bump.sharpness) * float(exact)
    assert err <= bound + bump._scale * 2.0**-1022, (err, bound)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(_CONTRACT_BUMPS), st.lists(st.floats(-5.0, 250.0), min_size=1, max_size=40))
def test_bump_scalar_is_one_element_array(bump, xs):
    """w(x) and w'(x) are bitwise the one-element array calls, and each
    value of a longer array is the value of its own one-element call."""
    values = bump.value_array(np.array(xs))
    slopes = bump.derivative(np.array(xs))
    for i, x in enumerate(xs):
        single = bump.value_array(np.array([x]))[0]
        assert bump(x) == single == values[i]
        assert bump.derivative(x) == bump.derivative(np.array([x]))[0] == slopes[i]


def _value_array_compress_scatter(bump, xs):
    """SmoothBump.value_array literally: exp on the u inside (0, 1), taken
    out by a boolean mask and scattered back into zeros."""
    u = (np.asarray(xs, dtype=float) - bump.lo) / (bump.hi - bump.lo)
    inside = (u > 0.0) & (u < 1.0)
    out = np.zeros_like(u)
    uu = u[inside]
    out[inside] = bump._scale * np.exp(-bump.sharpness / (uu * (1.0 - uu)))
    return out


@st.composite
def _bump_arrays(draw):
    """A contract bump and points of it: the edges u = 0 and u = 1, one ulp
    either side of them, NaN, +-inf, and anywhere on and around the support."""
    bump = draw(st.sampled_from(_CONTRACT_BUMPS))
    edges = [
        float(x)
        for edge in (bump.lo, bump.hi)
        for x in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf))
    ]
    width = bump.hi - bump.lo
    points = st.one_of(
        st.sampled_from(edges + [math.nan, math.inf, -math.inf]),
        st.floats(bump.lo - width, bump.hi + width),
    )
    return bump, np.array(draw(st.lists(points, min_size=1, max_size=20)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_bump_arrays())
def test_bump_value_array_matches_compress_scatter(case):
    """value_array, one pass with a select, gives the bits of the compress
    and scatter formula, for arrays and 0-d inputs, and warns of nothing."""
    bump, xs = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bump.value_array(xs).tobytes() == _value_array_compress_scatter(bump, xs).tobytes()
        single = bump.value_array(xs[0])
        assert single.shape == () and single.tobytes() == _value_array_compress_scatter(
            bump, xs[0]
        ).tobytes()


def test_product_bump_bounds():
    win = default_window()
    assert win.z_bound == pytest.approx(1.0)
    assert win.zx_bound >= 1.0 and win.zy_bound >= 1.0


# ---------------------------------------------------------------------------
# Bessel
# ---------------------------------------------------------------------------


def test_bessel_at_zero():
    assert kernels.bessel_j_array(0, np.array([0.0]))[0] == 1.0
    assert kernels.bessel_j_array(1, np.array([0.0]))[0] == 0.0


def test_bessel_first_zero():
    assert abs(kernels.bessel_j_array(1, np.array([3.8317]))[0]) < 1e-3


def test_hankel_edges():
    """X_order for orders 0-20, each a point 20 * 2^(j/4) of the grid: the
    seam between Miller and the Hankel expansion, and Miller's start."""
    steps = [1] * 10 + [2, 3, 4, 5, 6, 6, 7, 8, 9, 9, 10]
    assert [kernels._hankel_edge(k) for k in range(21)] == [20.0 * 2.0 ** (j / 4.0) for j in steps]


def test_bessel_branch_agreement():
    # two values each within the 5e-12 contract; 1.1e-12 measured at x = 12
    # and 4.4e-16 at the Hankel edges
    xs = np.linspace(11.0, 13.0, 11)
    for order in (0, 1, 5, 11, 20):
        series = kernels._bessel_series_array(order, xs)
        asymptotic = kernels._bessel_asymptotic_array(order, xs)
        assert float(np.abs(series - asymptotic).max()) < 1e-11
    for order in range(21):
        edge = np.array([kernels._hankel_edge(order)])
        gap = kernels._bessel_miller(order, edge) - kernels._hankel(order, edge)
        assert abs(float(gap[0])) < 1e-11, order


def test_bessel_recurrence():
    for order in (1, 2, 5, 11, 19):
        for x in np.linspace(0.5, 30.0, 40):
            xs = np.array([x])
            lhs = kernels.bessel_j_array(order - 1, xs) + kernels.bessel_j_array(order + 1, xs)
            rhs = 2.0 * order / x * kernels.bessel_j_array(order, xs)
            assert abs(lhs[0] - rhs[0]) < 1e-10  # 2.7e-13 measured on this grid


def test_bessel_array_matches_scalar():
    """bessel_j_array on a one-element array equals bit for bit the same x
    inside a shuffled array that spans several chunks and every branch."""
    rng = np.random.default_rng(7)
    probes = np.concatenate([
        np.linspace(0.0, 120.0, 977),
        [1e-3, kernels.BESSEL_CROSSOVER, 19.9, 20.0],
        rng.uniform(120.0, 30000.0, 40),
    ])
    background = rng.uniform(0.0, 30000.0, 150_000)
    background[::3] = rng.uniform(0.0, 25.0, background[::3].size)
    xs = np.concatenate([probes, background])
    perm = rng.permutation(xs.size)
    at = np.argsort(perm)[: probes.size]
    for order in (0, 1, 4, 11, 20):
        shuffled = kernels.bessel_j_array(order, xs[perm])
        single = np.array([kernels.bessel_j_array(order, np.array([x]))[0] for x in probes])
        assert np.array_equal(shuffled[at], single)


def test_bessel_array_matches_mpmath():
    """The accuracy contract of bessel_j_array: absolute error <= 5e-12 on
    (0, 500], relative error <= 1e-10 where x < order.  The grid holds both
    sides of each seam: x = 12, and each order's Hankel edge X_order."""
    mpmath = pytest.importorskip("mpmath")
    grid = np.concatenate([
        np.linspace(0.02, 40.0, 240),
        np.linspace(40.0, 500.0, 93),
        [1.0, 5.0, 20.0],
        kernels._HANKEL_GRID[kernels._HANKEL_GRID <= 500.0],
        [kernels.BESSEL_CROSSOVER, np.nextafter(kernels.BESSEL_CROSSOVER, np.inf)],
    ])
    with mpmath.workdps(30):
        for order in range(21):
            near = [order - 1e-6, float(order), order + 1e-6] if order else []
            edge = kernels._hankel_edge(order)
            near += [np.nextafter(edge, -np.inf), edge]
            xs = np.unique(np.concatenate([grid, near]))
            got = kernels.bessel_j_array(order, xs)
            ref = np.array([float(mpmath.besselj(order, mpmath.mpf(float(x)))) for x in xs])
            err = np.abs(got - ref)
            assert float(err.max()) <= 5e-12, (order, xs[err.argmax()])
            below = xs < order
            if below.any():
                rel = err[below] / np.abs(ref[below])
                assert float(rel.max()) <= 1e-10, (order, xs[below][rel.argmax()])


def test_hankel_regime_matches_mpmath():
    """The Hankel-regime contract of bessel_j_array: absolute error <= 1e-15
    for X_order <= x <= 2e4, a range that holds every argument of the Voronoi
    dual sums (up to about 1.12e4).  The grid is log-spaced, plus the doubles
    nearest odd multiples of pi, where |tan(x / 2)| is largest.  532 mpmath
    evaluations; 2.8e-17 measured (7.1e-15 with the phase x - pi/4 rounded)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for order in range(21):
            edge = kernels._hankel_edge(order)
            odd = {int(k) | 1 for k in np.geomspace(edge / math.pi, 2e4 / math.pi, 7)}
            poles = [float(mpmath.pi * k) for k in sorted(odd)]
            xs = np.concatenate([np.geomspace(edge, 2e4, 20), [x for x in poles if edge <= x <= 2e4]])
            got = kernels.bessel_j_array(order, xs)
            ref = np.array([float(mpmath.besselj(order, mpmath.mpf(float(x)))) for x in xs])
            err = np.abs(got - ref)
            assert float(err.max()) <= 1e-15, (order, xs[err.argmax()])


def _pinned_bessel_grid():
    """0 to 150 in steps of 0.05, then 2000 log-spaced points up to 2e4,
    and the doubles on each side of every seam: x = 12 and each point of
    the Hankel-edge grid up to 2e4."""
    edges = kernels._HANKEL_GRID[kernels._HANKEL_GRID <= 2e4]
    seams = []
    for x in [kernels.BESSEL_CROSSOVER, *edges.tolist()]:
        seams += [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
    return np.concatenate([np.linspace(0.0, 150.0, 3001), np.geomspace(150.0, 2e4, 2000), seams])


# sha256 of the bytes of bessel_j_array over _pinned_bessel_grid, for each
# order 0-20 on the whole grid (every branch in one chunk) and then on the
# part at or above the order's Hankel edge (a chunk the Hankel branch takes
# whole), as recorded when the Hankel sums became one stacked Horner pass
_BESSEL_SHA256 = "f98e5214b67d6f5dc2d34fa6191f8c0f2d3052fa2e6131faae27f3c1b7e426c7"


def test_bessel_values_unchanged():
    xs = _pinned_bessel_grid()
    digest = hashlib.sha256()
    for order in range(21):
        digest.update(kernels.bessel_j_array(order, xs).tobytes())
        above = xs[xs >= kernels._hankel_edge(order)]
        digest.update(kernels.bessel_j_array(order, above).tobytes())
    assert digest.hexdigest() == _BESSEL_SHA256


def test_bessel_array_reads_its_input_only_and_ignores_chunking():
    """bessel_j_array never writes into xs: perfbench's Bessel meter counts
    the arguments above the crossover after the call, so an argument
    overwritten with J values would read as the wrong branch.  And where
    the chunks (or the caller's slabs) start does not change a value: the
    ascending grid spans three chunks, the first mixed and the rest wholly
    above every order's Hankel edge, and is also evaluated in pieces cut
    off the chunk boundaries and as a 2-d array."""
    n = 2 * kernels._CHUNK + 1001
    xs = np.concatenate([np.linspace(0.0, 150.0, 4000), np.geomspace(150.0, 2e4, n - 4000)])
    cuts = [0, 1, 1000, 5000, kernels._CHUNK + 7, 2 * kernels._CHUNK - 3, n]
    for order in (0, 1, 4, 11, 20):
        before = xs.copy()
        whole = kernels.bessel_j_array(order, xs)
        assert np.array_equal(xs, before)
        pieces = np.concatenate([
            kernels.bessel_j_array(order, xs[a:b]) for a, b in zip(cuts, cuts[1:])
        ])
        assert np.array_equal(pieces, whole)
        block = xs[: 40 * 1408].reshape(40, 1408)
        before = block.copy()
        assert np.array_equal(kernels.bessel_j_array(order, block).ravel(), whole[: block.size])
        assert np.array_equal(block, before)


def test_bessel_sums_match_the_bessel_matrix():
    """bessel_j_sums against one bessel_j_array matrix times the weights,
    for every order, on seeded scales from 0.05 to 8 times X_order / u_0:
    rows in the series, Miller and Hankel regimes, and rows wholly above
    the edge.  Within 1e-16 sum_j |w_j| (2.6e-17 measured), and each row of
    weights bit for bit as when it is passed alone."""
    rng = np.random.default_rng(28)
    for order in range(21):
        us = np.sort(rng.uniform(6.0, 15.0, 300))
        edge = kernels._hankel_edge(order)
        scales = np.sort(edge / us[0] * np.exp(rng.uniform(math.log(0.05), math.log(8.0), 200)))
        assert 0 < np.count_nonzero(scales * us[0] < edge) < scales.size
        weights = rng.uniform(-1.0, 1.0, (2, us.size))
        got = kernels.bessel_j_sums(order, scales, us, weights)
        ref = weights @ kernels.bessel_j_array(order, np.outer(scales, us)).T
        assert got.shape == ref.shape
        bound = 1e-16 * np.abs(weights).sum(axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= bound), order
        for i in range(2):
            alone = kernels.bessel_j_sums(order, scales, us, weights[i : i + 1])[0]
            assert np.array_equal(got[i], alone), order


def test_bessel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        kernels.bessel_j_array(21, np.array([1.0]))
    with pytest.raises(ValueError):
        kernels.bessel_j_array(1, np.array([-1.0]))


# ---------------------------------------------------------------------------
# delta weight and decomposition
# ---------------------------------------------------------------------------


def test_weight_support():
    w = default_delta_bump()
    assert kernels.delta_weight_array(2.0, np.array([0.1]), w)[0] == 0.0
    ys = np.linspace(-2.0, 2.0, 41)
    for x in np.linspace(0.05, 3.0, 40):
        g = kernels.delta_weight_array(float(x), ys, w)
        outside = float(x) > np.maximum(1.0, 2.0 * np.abs(ys))
        assert np.all(g[outside] == 0.0)


def test_weight_flat_in_y_inside_core():
    # value independent of y when x <= 1 and 2|y| <= x
    w = default_delta_bump()
    for x in (0.3, 0.7, 1.0):
        v1, v2 = kernels.delta_weight_array(x, np.array([0.0, x / 2 - 1e-9]), w)
        assert v1 == pytest.approx(v2, abs=1e-12)


def test_weight_array_matches_mpmath():
    """The accuracy contract of delta_weight_array: k x |g - g_exact| <=
    1e-14 at exact k x, for k x in [0.02, 3], |y| <= 3, sharpness 0.25,
    0.5 and 1, on the rows of one multiples call per x."""
    mpmath = pytest.importorskip("mpmath")

    def exact(kx, y, bump):
        # the bump's own (float) scale, everything else at 30 digits
        lo, width = mpmath.mpf(bump.lo), mpmath.mpf(bump.hi - bump.lo)

        def w(t):
            u = (t - lo) / width
            if not 0 < u < 1:
                return mpmath.mpf(0)
            return mpmath.mpf(bump._scale) * mpmath.exp(-bump.sharpness / (u * (1 - u)))

        y = abs(mpmath.mpf(y))
        j_max = int(mpmath.ceil(max(1, 2 * y) / kx))
        return mpmath.fsum((w(kx * j) - w(y / (kx * j))) / (kx * j) for j in range(1, j_max + 1))

    ys = np.linspace(-3.0, 3.0, 41)
    # x = 0.02 with every row up to k x = 3, x = 1/Q at the ladder's Q, and
    # one x whose rows are all past 1/2
    cases = ((0.02, 150), (1.0 / 126.5, 379), (0.37, 8), (3.0, 1))
    worst = 0.0
    with mpmath.workdps(30):
        for sharpness in (0.25, 0.5, 1.0):
            w = default_delta_bump(sharpness)
            for x, k_top in cases:
                rows = kernels.delta_weight_array(x, ys, w, multiples=range(1, k_top + 1))
                assert rows.shape == (k_top, ys.size)
                for k in np.unique(np.geomspace(1, k_top, 8).round().astype(int)).tolist():
                    kx = mpmath.mpf(k) * mpmath.mpf(x)
                    for y, value in zip(ys.tolist(), rows[k - 1].tolist()):
                        worst = max(worst, float(kx) * abs(value - float(exact(kx, y, w))))
    assert worst <= 1e-14, worst


def _delta_weight_full_pass(x, ys, bump, multiples):
    """delta_weight_array literally: row k is C_k = sum_j A_kj, added from 0
    in j order, minus every B_kj(y) over the whole array in j order, set
    to 0 where k x > max(1, 2|y|); A_m = w(m x)/(m x) and
    B_m(y) = w(|y|/(m x))/(m x)."""
    ys_abs = np.abs(np.asarray(ys, dtype=float))
    top = max(1.0, 2.0 * float(ys_abs.max(initial=0.0)))
    rows = []
    for k in multiples:
        j_max = int(math.ceil(top / (k * x)))
        c = 0.0
        for j in range(1, j_max + 1):
            c += bump(k * j * x) / (k * j * x)
        acc = np.full(ys_abs.shape, c)
        for j in range(1, j_max + 1):
            acc -= bump.value_array(ys_abs / (k * j * x)) / (k * j * x)
        acc[k * x > np.maximum(1.0, 2.0 * ys_abs)] = 0.0
        rows.append(acc)
    return np.array(rows).reshape((len(multiples),) + ys_abs.shape)


_WEIGHT_BUMPS = {s: default_delta_bump(s) for s in (0.25, 0.5, 1.0)}


@st.composite
def _weight_inputs(draw):
    bump = _WEIGHT_BUMPS[draw(st.sampled_from(sorted(_WEIGHT_BUMPS)))]
    x = draw(st.floats(0.02, 3.0))
    ys = draw(st.lists(st.floats(-3.0, 3.0), max_size=30))
    # points on the edges of some m's band, a float step off them, and a
    # little inside or outside, where w is tiny but not 0
    m_top = int(math.ceil(6.0 / x))
    for m in draw(st.lists(st.integers(1, m_top), max_size=6)):
        for edge in (bump.lo * (m * x), bump.hi * (m * x)):
            offset = draw(st.sampled_from((-1e-2, -1e-3, 1e-3, 1e-2)))
            near = (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 4.0), edge * (1 + offset))
            for y in near:
                if y <= 3.0:
                    ys.append(draw(st.sampled_from((1.0, -1.0))) * float(y))
    ys = np.array(ys, dtype=float)
    if ys.size % 2 == 0 and draw(st.booleans()):
        ys = ys.reshape(2, -1)
    first = draw(st.integers(1, 6))
    multiples = draw(st.sampled_from((None, range(first, first + draw(st.integers(0, 5))))))
    return x, ys, bump, multiples


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_weight_inputs())
@example((0.3, np.zeros(0), _WEIGHT_BUMPS[0.5], None))
@example((0.3, np.zeros(7), _WEIGHT_BUMPS[0.25], range(1, 5)))
@example((0.02, np.linspace(-3.0, 3.0, 12).reshape(3, 4), _WEIGHT_BUMPS[1.0], None))
@example((0.02, np.linspace(-3.0, 3.0, 12), _WEIGHT_BUMPS[0.5], range(1, 151)))
@example((1.0 / 126.5, np.arange(0, 4001) / 126.5**2, _WEIGHT_BUMPS[0.5], range(1, 9)))
@example((0.05, np.repeat(np.linspace(0.0, 1.5, 7), 3), _WEIGHT_BUMPS[1.0], range(1, 4)))
@example((0.3, np.array([-0.7]), _WEIGHT_BUMPS[0.25], None))
@example((0.3, np.zeros(0), _WEIGHT_BUMPS[0.5], range(1, 4)))
def test_weight_array_matches_full_pass(case):
    """The banded rows equal, bit for bit, the literal pass of C_k - sum_j
    B_kj over the whole array; shape ys.shape for one x, else one row per
    multiple.  The examples take both paths: |y| ascending (a ladder-like
    grid, a grid with ties, one element, none) used as it is, and any
    other |y| argsorted."""
    x, ys, bump, multiples = case
    got = kernels.delta_weight_array(x, ys, bump, multiples=multiples)
    want = _delta_weight_full_pass(x, ys, bump, (1,) if multiples is None else multiples)
    shape = ys.shape if multiples is None else (len(multiples),) + ys.shape
    assert got.shape == shape
    assert got.tobytes() == want.reshape(shape).tobytes()


def test_weight_array_evaluates_each_b_m_once(monkeypatch):
    """One call over rows 1..K asks value_array for the A_m and for each
    B_m's band once, however many of the rows m is a multiple of: the
    elements it evaluates are the A_m count plus the band lengths, each
    band the sorted |y| in the bump's support times m x, widened by
    _BAND_MARGIN.  The bands go packed into pieces of _BAND_PIECE values,
    so the calls are few: at most 2 + 2 ceil(band values / _BAND_PIECE)."""
    bump = _WEIGHT_BUMPS[0.5]
    x, k_top = 1.0 / 126.5, 60
    ys = np.random.default_rng(5).uniform(-0.6, 0.6, 2000)
    evaluated = []
    value_array = kernels.SmoothBump.value_array

    def counting(self, xs):
        evaluated.append(np.size(xs))
        return value_array(self, xs)

    monkeypatch.setattr(kernels.SmoothBump, "value_array", counting)
    kernels.delta_weight_array(x, ys, bump, multiples=range(1, k_top + 1))
    monkeypatch.undo()
    ordered = np.sort(np.abs(ys))
    margin = kernels._BAND_MARGIN * bump.hi
    a_count = int(bump.hi / x) + 1
    bands, m = 0, 1
    while (bump.lo - margin) * (m * x) <= ordered[-1]:
        lo, hi = np.searchsorted(ordered, [(bump.lo - margin) * (m * x), (bump.hi + margin) * (m * x)])
        bands += int(hi - lo)
        m += 1
    assert sum(evaluated) == a_count + bands
    assert len(evaluated) <= 2 + 2 * math.ceil(bands / kernels._BAND_PIECE), len(evaluated)


def test_weight_array_rejects_a_multiple_below_one():
    with pytest.raises(ValueError):
        kernels.delta_weight_array(0.3, np.zeros(3), _WEIGHT_BUMPS[0.5], multiples=range(0, 3))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    st.floats(1.0, 1000.0, exclude_min=True),
    st.sampled_from((0.25, 0.5, 1.0)),
    st.sampled_from((1, 2, 3, 5, 11)),
)
@example(126.49110640673517, 0.5, 1)
@example(1000.0, 1.0, 11)
def test_calibration_is_the_raw_sum_at_zero(q_scale, sharpness, level):
    """calibrate's phi(q)-weighted sum over the weight rows is, bit for
    bit, the decomposition's own raw sum at n = 0 with the level-1
    gamma-sum."""
    try:
        scheme = kernels.DeltaScheme(q_scale, level, default_delta_bump(sharpness))
    except kernels.CalibrationError:
        reject()
    raw = kernels._raw_sums(scheme, np.zeros(1, dtype=np.int64), 1)[0]
    assert kernels.calibrate(scheme) == scheme.raw_zero == raw


def test_scheme_validation():
    with pytest.raises(ValueError):
        kernels.DeltaScheme(0.5, 1, default_delta_bump())
    with pytest.raises(ValueError):
        kernels.DeltaScheme(10.0, 4, default_delta_bump())


def test_calibration_window():
    for q_scale in (6.0, 10.0, 25.0):
        scheme = kernels.DeltaScheme(q_scale, 1, default_delta_bump())
        assert 0.9 <= scheme.c_q <= 1.1
        assert abs(scheme.c_q - 1.0) <= 1.0 / q_scale


def test_calibration_improves_with_q():
    c6 = kernels.DeltaScheme(6.0, 1, default_delta_bump()).c_q
    c10 = kernels.DeltaScheme(10.0, 1, default_delta_bump()).c_q
    c25 = kernels.DeltaScheme(25.0, 1, default_delta_bump()).c_q
    c50 = kernels.DeltaScheme(50.0, 1, default_delta_bump()).c_q
    assert abs(c25 - 1.0) <= abs(c6 - 1.0)
    assert abs(c50 - 1.0) <= abs(c10 - 1.0)


def test_delta_plain_examples():
    scheme = kernels.DeltaScheme(10.0, 1, default_delta_bump())
    assert kernels.delta_decompose(0, scheme) == 1.0
    assert abs(kernels.delta_decompose(7, scheme)) < 1e-8
    scheme6 = kernels.DeltaScheme(6.0, 1, default_delta_bump())
    assert abs(kernels.delta_decompose(-3, scheme6)) < 1e-8
    assert kernels.delta_decompose(-3, scheme6) == kernels.delta_decompose(3, scheme6)


def test_delta_plain_multi_bump_agreement():
    # five distinct bumps must all report zero away from the origin
    for sharpness in (0.2, 0.25, 0.5, 1.0, 1.5):
        scheme = kernels.DeltaScheme(10.0, 1, default_delta_bump(sharpness))
        assert abs(kernels.delta_decompose(7, scheme)) < 1e-8


def test_delta_plain_requires_level_one():
    scheme = kernels.DeltaScheme(10.0, 3, default_delta_bump())
    with pytest.raises(ValueError):
        kernels.delta_decompose(1, scheme)


def test_delta_lowered_examples():
    scheme = kernels.DeltaScheme(10.0, 5, default_delta_bump())
    assert kernels.delta_decompose_lowered(0, scheme) == pytest.approx(1.0, abs=1e-12)
    # multiples of the level pass the congruence; the inner delta kills them
    assert abs(kernels.delta_decompose_lowered(15, scheme)) < 1e-8
    # off-multiples die through the congruence average
    assert abs(kernels.delta_decompose_lowered(7, scheme)) < 1e-8


def test_decompositions_over_arrays_match_one_element_calls():
    ns = np.arange(-60, 61)
    schemes = [
        (kernels.delta_decompose, kernels.DeltaScheme(q_scale, 1, default_delta_bump()))
        for q_scale in (6.0, 10.5, 25.0)
    ] + [
        (kernels.delta_decompose_lowered, kernels.DeltaScheme(10.0, level, default_delta_bump()))
        for level in (2, 5, 11)
    ]
    for evaluate, scheme in schemes:
        values = evaluate(ns, scheme)
        assert values.shape == ns.shape and values.dtype == np.float64
        singles = [evaluate(n, scheme) for n in ns.tolist()]
        assert all(type(v) is float for v in singles)
        assert values.tolist() == singles, (evaluate.__name__, scheme.q_scale, scheme.level)
        if scheme.level == 1:
            assert values[60] == 1.0


def _literal_lowered(ns, scheme):
    """(1/(P Q^2)) sum_q [sum*_a sum_b cos(2 pi n (a + b q)/(q P))] g / raw_zero
    for signed n, the a- and b-sums taken term by term, each phase reduced
    mod qP in integer arithmetic."""
    level, q_scale = scheme.level, scheme.q_scale
    ys = ns / (level * q_scale * q_scale)
    total = np.zeros(ns.size)
    for q in range(1, scheme.q_max(int(np.abs(ns).max())) + 1):
        g = kernels.delta_weight_array(q / q_scale, ys, scheme.bump)
        qp = q * level
        units = [a for a in range(q) if math.gcd(a, q) == 1]
        gammas = np.array([a + b * q for a in units for b in range(level)])
        phases = np.outer(ns, gammas) % qp
        total += np.cos(2.0 * math.pi * phases / qp).sum(axis=1) * g
    return total / (level * q_scale * q_scale) / scheme.raw_zero


def test_lowered_decomposition_matches_literal_triple_sum():
    """The closed gamma-sum P [P | n] c_q(n/P) against the displayed triple
    sum at signed n: at -n the literal a-sum is the conjugate of the one at
    n, while the kernel reads |n|."""
    ns = np.arange(-120, 121)
    for level in (2, 3, 5, 11):
        for q_scale in (6.0, 10.0, 25.0):
            scheme = kernels.DeltaScheme(q_scale, level, default_delta_bump())
            got = kernels.delta_decompose_lowered(ns, scheme)
            want = _literal_lowered(ns, scheme)
            assert float(np.abs(got - want).max()) <= 1e-14, (level, q_scale)


def _pinned_delta_values():
    """repr lines of the plain decomposition at three Q on [-300, 300], of
    raw_zero on a (sharpness, Q, P) grid, and of the nine acceptance
    SumReports."""
    ns = np.arange(-300, 301)
    lines = []
    for q_scale in (6.0, 10.5, 25.0):
        scheme = kernels.DeltaScheme(q_scale, 1, default_delta_bump())
        lines.append(repr(kernels.delta_decompose(ns, scheme).tolist()))
    for sharpness in (0.25, 0.5, 1.0):
        for q_scale in (4.0, 6.0, 10.5, 25.0, 50.0):
            for level in (1, 2, 3, 5, 11):
                scheme = kernels.DeltaScheme(q_scale, level, default_delta_bump(sharpness))
                lines.append(repr(scheme.raw_zero))
    lines += [repr(shifted_sum_delta(spec)) for spec in verify.acceptance_specs()]
    return lines


# sha256 of _pinned_delta_values, joined by newlines, as written when the
# bump's normalization became the trapezoid rule: only the 25 raw_zero
# lines at sharpness 1 moved, each by at most 4.5e-16 relative, with the
# bump's scale one ulp closer to 1 / int w.  The other lines are those
# written when the shifted sums' amplitudes became one FFT folded onto
# u = |t| and their gamma-sums strided sums
_DELTA_SHA256 = "c2814abbba6b22a744720baf050cd9128a898e22ae33dbf9eab0627b1ecbe6a3"


def test_delta_values_unchanged():
    digest = hashlib.sha256("\n".join(_pinned_delta_values()).encode()).hexdigest()
    assert digest == _DELTA_SHA256


def test_broken_bump_rejected():
    # a bump violating the unit-integral convention breaks calibration, so
    # the scheme cannot be built
    bad = kernels.SmoothBump(0.5, 1.0, sharpness=0.5, normalization="peak", target=5.0)
    with pytest.raises(kernels.CalibrationError):
        kernels.DeltaScheme(10.0, 1, bad)


# ---------------------------------------------------------------------------
# double integral and truncation ranges
# ---------------------------------------------------------------------------


def test_double_integral_zero_window():
    zero = kernels.ProductBump(
        kernels.SmoothBump(0.5, 2.5, 1.0, "peak", target=0.0),
        kernels.SmoothBump(0.5, 2.5, 1.0, "peak"),
    )
    # a zero factor forces the parity of the whole product
    res = kernels.double_bessel_integral(
        0.5, 0.5, 1, 1, 8.0, 1, 1.0, 4.0, 4.0, zero, 3, default_delta_bump()
    )
    assert res.value == 0.0


def test_double_integral_support_violation_zero():
    # q c / Q > 1 while the shift keeps 2|x - y + rM| below q c Q P
    res = kernels.double_bessel_integral(
        0.5, 0.5, 4, 9, 6.0, 1, 0.0, 3.0, 3.0, default_window(), 3, default_delta_bump()
    )
    assert res.value == 0.0


def test_double_integral_against_midpoint_grid():
    row = verify.check_double_integral()
    assert row.status == verify.PASS, row.detail


def _quadrature_parameter_sets():
    """The 33 calls of the two verify-all double-integral checks: the five
    _J_CASES, the support-violation zero and the 3 x 3 x 3 envelope grid."""
    sets = list(verify._J_CASES)
    sets.append((0.5, 0.5, 4, 9, 6.0, 1, 0.0, 3.0, 3.0, 3))
    for a in (0.3, 0.8, 1.6):
        for b in (0.4, 1.0, 2.1):
            for q in (1, 2, 3):
                sets.append((a, b, 1, q, 9.0, 2, 1.5, 4.0, 4.0, 3))
    return sets


def _integral(params):
    a, b, c, q, q_cap_v, level, r_shift, xs_, ys_, order = params
    return kernels.double_bessel_integral(
        a, b, c, q, q_cap_v, level, r_shift, xs_, ys_, default_window(), order,
        default_delta_bump(),
    )


# sha256 of the repr of (value, error_estimate, panels), one line per
# parameter set
_QUADRATURE_SHA256 = "5fd2cbfde2f9c32380ea42a64bc5d2bdb9b567e312ccafac2f854539788c9fc1"


def test_double_integral_results_unchanged():
    lines = []
    for params in _quadrature_parameter_sets():
        res = _integral(params)
        lines.append(repr((res.value, res.error_estimate, res.panels)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _QUADRATURE_SHA256


def _refined_integral(params):
    """The same integral by a rule independent of the package's: 64
    Gauss-Legendre points in sqrt(x) on 2 max(6, ceil(cycles / 10)) equal
    panels per axis, cycles = 2 a (sqrt(x_hi) - sqrt(x_lo)), built here
    from numpy's nodes."""
    a, b, c, q, q_cap_v, level, r_shift, xs_, ys_, order = params
    window = default_window()
    nodes, weights = np.polynomial.legendre.leggauss(64)
    axes = []
    for f, scale, freq in ((window.fx, xs_, a), (window.fy, ys_, b)):
        lo, hi = math.sqrt(f.lo * scale), math.sqrt(f.hi * scale)
        panels = 2 * max(6, math.ceil(2 * freq * (hi - lo) / 10))
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * (edges[1] - edges[0])
        us = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * nodes).ravel()
        xs = us * us
        jvals = kernels.bessel_j_array(order, 4 * math.pi * freq * us)
        axes.append((xs, half * np.tile(weights, panels) * f.value_array(xs / scale) * jvals))
    (xs, col), (ys, row) = axes
    g = kernels.delta_weight_array(
        q * c / q_cap_v, (xs[:, None] - ys + r_shift) / (level * q_cap_v**2), default_delta_bump()
    )
    return 4 * float(col @ g @ row)


def test_double_integral_estimate_bounds_the_error():
    # the floor 1e-14 is the verify-all row's: below it the delta weight's
    # rounding, not the rule, sets the difference between two meshes
    for params in _quadrature_parameter_sets():
        res = _integral(params)
        diff = abs(res.value - _refined_integral(params))
        assert diff <= max(res.error_estimate, 1e-14), (params, diff, res.error_estimate)


def test_double_integral_memory_is_bounded_by_the_pass():
    """At a = b = 28 each axis takes the trapezoid rule's 247 steps, a
    246 x 246 mesh; the weight's temporaries on it peak near 3 MB."""
    window = default_window()
    tracemalloc.start()
    try:
        res = kernels.double_bessel_integral(
            28.0, 28.0, 1, 1, 8.0, 1, 1.0, 4.0, 4.0, window, 3, default_delta_bump()
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    steps = [
        kernels._sqrt_trapezoid_rule(f.lo * 4.0, f.hi * 4.0, 4 * math.pi * 28.0, 1.0)[0].size + 1
        for f in (window.fx, window.fy)
    ]
    assert res.panels == steps[0] * steps[1] == 247 * 247
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize(
    "params",
    [
        # order 11 on [sqrt 8, sqrt 40]: the delta weight's bands leave an
        # error of 8.2e-8 against a tolerance of 1.3e-7, and the estimate
        # of 1.2e-6 fails it
        (2.0, 2.0, 1, 1, 8.0, 1, 1.0, 16.0, 16.0, 11),
        # the same at a = b = 3: an error of 3.2e-9 under an estimate of
        # 1.2e-6; the failure's estimate must bound its error here too
        (3.0, 3.0, 1, 1, 8.0, 1, 1.0, 16.0, 16.0, 11),
    ],
)
def test_double_integral_failure_reports_estimate(params):
    with pytest.raises(kernels.NumericalFailure, match="exceeds tolerance") as info:
        _integral(params)
    failure = info.value
    assert math.isfinite(failure.value)
    assert failure.error_estimate > 1.28e-7
    assert abs(failure.value - _refined_integral(params)) <= failure.error_estimate


def test_double_integral_raises_on_nan(monkeypatch):
    """NaN Bessel values make a NaN estimate, which fails the tolerance."""
    monkeypatch.setattr(kernels, "bessel_j_array", lambda order, x: np.full(np.shape(x), np.nan))
    with pytest.raises(kernels.NumericalFailure, match="exceeds tolerance"):
        _integral(verify._J_CASES[0])


def test_truncation_ranges_formulas():
    q, xs_, ys_, zx, zy, cap, level = 2, 9.0, 4.0, 1.5, 2.0, 5.0, 3
    t1, t2 = kernels.truncation_ranges(q, xs_, ys_, zx, zy, cap, level, kernels.Stratum.COPRIME)
    assert t1 == pytest.approx(level**2 * q**2 / xs_ * (zx + xs_ / (q * cap * level)) ** 2)
    assert t2 == pytest.approx(level**2 * q**2 / ys_ * (zy + ys_ / (q * cap * level)) ** 2)
    s1, s2 = kernels.truncation_ranges(q, xs_, ys_, zx, zy, cap, level, kernels.Stratum.GAMMA)
    assert t1 / s1 == pytest.approx(level)
    assert t2 / s2 == pytest.approx(level)
    m1, m2 = kernels.truncation_ranges(q, xs_, ys_, zx, zy, cap, 1, kernels.Stratum.MODULUS)
    c1, c2 = kernels.truncation_ranges(q, xs_, ys_, zx, zy, cap, 1, kernels.Stratum.COPRIME)
    assert (m1, m2) == (c1, c2)
