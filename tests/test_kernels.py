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
