"""The numpy kernels against per-point Python references."""

import math

import numpy as np
import pytest

from uaplab import _kernels as K
from uaplab import activations as act

INF = math.inf


def cube():
    base = act.ActivationSpec("cube", [act.Branch(-INF, INF, "power", (1.0, 3.0, 0.0, 0.0))])
    return act.construct_transitive(base, 0.5, 1.0)


def root():
    """sign(x)*sqrt|x| + 0.1x: a power branch with p < 1, whose derivative
    is infinite at 0."""
    return act.ActivationSpec("root", [act.Branch(-INF, INF, "power", (1.0, 0.5, 0.1, 0.0))])


def specs():
    return [act.by_name(n) for n in ("relu", "leaky_shifted_paper", "leaky_rescaled_paper")] + [
        cube(), root()]


def branch_at(spec, x):
    """The branch covering x; branch j covers [lo_j, hi_j)."""
    return next(b for b in spec.branches if b.lo <= x < b.hi)


def ref_value(spec, x):
    return float(branch_at(spec, x).value(x))


def ref_invert(spec, y):
    """Scalar bisection of the increasing map to float spacing."""
    lo, hi = -1.0, 1.0
    while ref_value(spec, lo) > y:
        lo *= 2.0
    while ref_value(spec, hi) < y:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if ref_value(spec, mid) < y:
            lo = mid
        else:
            hi = mid


def sample_points(spec, rng):
    """Random points, every breakpoint exactly, and far out on both
    infinite branch ends."""
    return np.concatenate([rng.uniform(-100, 100, 400), spec.breakpoints,
                           [0.0, -1e6, 1e6, -1e12, 1e12]])


@pytest.mark.parametrize("spec", specs(), ids=lambda s: s.name)
def test_eval_and_derivative_per_point(spec):
    x = sample_points(spec, np.random.default_rng(0))
    edges, kinds, par, _ = spec._table
    want = [ref_value(spec, v) for v in x]
    np.testing.assert_allclose(K.act_eval(edges, kinds, par, x), want, rtol=1e-14)
    with np.errstate(divide="ignore"):  # root's derivative at 0 is inf
        dwant = [float(branch_at(spec, v).derivative(v)) for v in x]
        got = K.act_deriv(edges, kinds, par, x)
    np.testing.assert_allclose(got, dwant, rtol=1e-14)
    # 2-D input keeps its shape
    grid = x[:400].reshape(200, 2)
    assert K.act_eval(edges, kinds, par, grid).shape == (200, 2)


def test_derivative_is_right_sided_at_breakpoints():
    edges, kinds, par, _ = act.by_name("leaky_shifted_paper")._table
    assert K.act_deriv(edges, kinds, par, np.array([-1e-300, 0.0])).tolist() == [0.1, 1.1]


@pytest.mark.parametrize("spec", specs()[1:], ids=lambda s: s.name)
def test_inversion_matches_bisection(spec):
    edges, kinds, par, vedges = spec._table
    rng = np.random.default_rng(1)
    y = np.concatenate([rng.uniform(-500, 500, 200), vedges, [-1e9, 1e9]])
    got = K.act_invert(edges, kinds, par, vedges, y)
    want = np.array([ref_invert(spec, v) for v in y])
    # a flat stretch of floats may map to y: compare to within 1e-13
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    back = K.act_eval(edges, kinds, par, got)
    assert np.all(np.abs(back - y) <= 1e-14 * (1.0 + np.abs(y)))


def test_inversion_near_infinite_derivative():
    spec = root()
    edges, kinds, par, vedges = spec._table
    y = np.array([0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-20, -1e-12, 1e-6, 3e-3])
    got = K.act_invert(edges, kinds, par, vedges, y)
    assert got[0] == 0.0
    want = np.array([ref_invert(spec, v) for v in y])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-30)
    back = K.act_eval(edges, kinds, par, got)
    assert np.all(np.abs(back - y) <= 1e-14 * np.abs(y) + 1e-30)


@pytest.mark.parametrize("spec", [act.by_name("leaky_shifted_paper"), cube()],
                         ids=lambda s: s.name)
def test_iterated_map_round_trip(spec):
    edges, kinds, par, vedges = spec._table
    x = np.random.default_rng(2).uniform(-3, 3, (500, 2))
    b = np.array([1.0, -0.5])
    for n in (0, 1, 3):
        fwd = K.s_iter(edges, kinds, par, x, b, n)
        if n == 1:
            np.testing.assert_array_equal(fwd, K.act_eval(edges, kinds, par, x + b))
        back = K.s_inv_iter(edges, kinds, par, vedges, fwd, b, n)
        np.testing.assert_allclose(back, x, rtol=1e-12, atol=1e-12)


def ref_tree(amp, lo, hi, x):
    total = 0.0
    for a, l, h in zip(amp, lo, hi):
        if l < x < h:
            total += a
    return total


def test_tree_eval_matches_loop():
    rng = np.random.default_rng(3)
    amp = rng.uniform(-2, 2, 300)
    lo = rng.uniform(-4, 2, 300)
    hi = lo + rng.uniform(0.0, 3.0, 300)
    hi[:30] = lo[:30]  # empty intervals (lo == hi) add nothing, even at x == lo
    lo[30], hi[31] = -INF, INF
    x = np.concatenate([rng.uniform(-5, 5, 500), lo[1:], hi[:30], hi[32:],
                        [-INF, INF]])
    got = K.tree_eval(amp, lo, hi, x)
    want = [ref_tree(amp, lo, hi, v) for v in x]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def test_tree_eval_empty_and_degenerate():
    z = np.empty(0)
    x = np.linspace(-1, 1, 11)
    assert np.array_equal(K.tree_eval(z, z, z, x), np.zeros(11))
    ends = np.array([0.0, 0.5])
    out = K.tree_eval(np.array([1.0, 2.0]), ends, ends, np.array([0.0, 0.5, 0.7]))
    assert out.tolist() == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# branch index and the searchsorted formulas it replaced


def searchsorted_eval(edges, kinds, par, x):
    """act_eval by binary search and 2-D gathers, the formulas the branch
    index replaced."""
    idx = np.searchsorted(edges[1:-1], x, side="right")
    out = par[idx, 0] * x + par[idx, 1]
    for j in np.flatnonzero(kinds == K.KIND_POWER):
        m = idx == j
        s, p, a, b = par[j]
        out[m] = s * np.sign(x[m]) * np.abs(x[m]) ** p + a * x[m] + b
    return out


def searchsorted_deriv(edges, kinds, par, x):
    idx = np.searchsorted(edges[1:-1], x, side="right")
    out = par[idx, 0]
    for j in np.flatnonzero(kinds == K.KIND_POWER):
        m = idx == j
        s, p, a, _ = par[j]
        out[m] = s * p * np.abs(x[m]) ** (p - 1.0) + a
    return out


def searchsorted_invert(edges, kinds, par, vedges, y):
    idx = np.searchsorted(vedges, y, side="right")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (y - par[idx, 1]) / par[idx, 0]
    for j in np.flatnonzero(kinds == K.KIND_POWER):
        m = idx == j
        out[m] = K._invert_power(par[j], edges[j], edges[j + 1], y[m], 1e-14)
    return out


@pytest.mark.parametrize("branches", [2, 3, 8, 32])
def test_branch_index_matches_searchsorted(branches):
    rng = np.random.default_rng(branches)
    interior = np.sort(np.r_[rng.uniform(-10, 10, branches - 2), 0.0])
    x = np.concatenate([rng.uniform(-12, 12, 2000), interior,
                        np.nextafter(interior, -INF), np.nextafter(interior, INF),
                        [-0.0, 0.0, -INF, INF]])
    want = np.searchsorted(interior, x, side="right")
    assert np.array_equal(K._branch_index(interior, x), want)


def table_specs():
    return [act.by_name(n) for n in ("relu", "leaky_shifted_paper", "leaky_rescaled_paper")] + [
        cube()]


@pytest.mark.parametrize("spec", table_specs(), ids=lambda s: s.name)
def test_kernels_equal_searchsorted_formulas(spec):
    edges, kinds, par, vedges = spec._table
    rng = np.random.default_rng(4)
    x = np.concatenate([sample_points(spec, rng), np.nextafter(spec.breakpoints, -INF),
                        [-0.0, -INF, INF]])
    with np.errstate(invalid="ignore"):  # relu's 0 * inf
        assert np.array_equal(K.act_eval(edges, kinds, par, x),
                              searchsorted_eval(edges, kinds, par, x), equal_nan=True)
    assert np.array_equal(K.act_deriv(edges, kinds, par, x),
                          searchsorted_deriv(edges, kinds, par, x))
    y = np.concatenate([rng.uniform(-500, 500, 400), vedges, np.nextafter(vedges, INF),
                        [-0.0, -1e9, 1e9]])
    assert np.array_equal(K.act_invert(edges, kinds, par, vedges, y),
                          searchsorted_invert(edges, kinds, par, vedges, y), equal_nan=True)


@pytest.mark.parametrize("spec", specs(), ids=lambda s: s.name)
def test_eval_keeps_nan(spec):
    edges, kinds, par, _ = spec._table
    got = K.act_eval(edges, kinds, par, np.array([np.nan, 1.0]))
    assert np.isnan(got[0]) and got[1] == ref_value(spec, 1.0)
    d = K.act_deriv(edges, kinds, par, np.array([np.nan, 1.0]))
    assert np.isnan(d[0]) and d[1] == float(branch_at(spec, 1.0).derivative(1.0))


def sagging():
    """x below 1, then -0.5*sqrt(x) + 2x - 0.5: increasing, with a negative
    power coefficient on the branch that reaches +inf."""
    return act.ActivationSpec("sagging", [
        act.Branch(-INF, 1.0, "affine", (1.0, 0.0)),
        act.Branch(1.0, INF, "power", (-0.5, 0.5, 2.0, -0.5))])


@pytest.mark.parametrize("spec", specs()[1:] + [sagging()], ids=lambda s: s.name)
def test_invert_maps_nonfinite_to_itself(spec):
    """NaN and +-inf keep their value whichever branch they land on: the
    affine branch below 0 or the power branch above it for the cube table,
    a power branch on both sides for root, one with a negative power
    coefficient for sagging."""
    edges, kinds, par, vedges = spec._table
    y = np.array([np.nan, INF, -INF, 0.5])
    with np.errstate(all="raise"):
        got = K.act_invert(edges, kinds, par, vedges, y)
    assert np.isnan(got[0]) and got[1] == INF and got[2] == -INF
    assert got[3] == K.act_invert(edges, kinds, par, vedges, y[3:])[0]


def test_invert_cube_table_nonfinite():
    edges, kinds, par, vedges = cube()._table
    got = K.act_invert(edges, kinds, par, vedges, np.array([np.nan, 1.0, INF, -INF, 0.5]))
    assert np.array_equal(got, [np.nan, 0.0, INF, -INF, -1.0], equal_nan=True)


def test_net_sample_leaves_points_unchanged():
    from uaplab.network import AffineLayer, FeedForwardNet, identity_layer

    sigma = act.by_name("leaky_shifted_paper")
    net = FeedForwardNet((identity_layer(2, 0.5),
                          AffineLayer(np.array([[1.3, -0.2], [-0.4, 0.9]]),
                                      np.array([0.2, 0.7]), True),
                          AffineLayer(np.array([[1.0, -2.0]]), np.array([0.1]), False)),
                         sigma)
    pts = np.random.default_rng(5).uniform(-3, 3, (50, 2))
    before = pts.copy()
    out = net.sample(pts)
    assert np.array_equal(pts, before)
    want = pts
    for layer in net.layers:
        want = want @ layer.matrix.T + layer.bias
        if layer.activation_after:
            want = sigma(want)
    assert np.array_equal(out, want)
