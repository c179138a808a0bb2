"""Metric and norm behavior on grid-backed functions.

Expected values are frozen from independent oracles: closed-form integrals,
geometric-series sums, and calculus, recomputed in-line where cheap.
"""

import math
import warnings

import numpy as np
import pytest

from uaplab import activations as act
from uaplab import function_space as fs
from uaplab.depth_dynamics import CompositionOperator, apply
from uaplab.errors import (
    ConfigError,
    DimensionMismatchError,
    NonFiniteValueError,
    QuadratureError,
)
from uaplab.function_space import (
    DUCC_BATCH_POINTS,
    GRID_CACHE_VALUES,
    LP_BLOCK_POINTS,
    SUP_START_RADIUS,
    GridFunction,
    _ensure_finite,
    _ndtr,
    _ndtri,
    Weight,
    cube_points,
    d_ucc,
    gaussian_measure,
    lp_norm,
    measure_from_config,
    sup_norm_on_ball,
    table_measure,
    uniform_window_measure,
    weighted_sup_norm,
    weights_from_config,
)
from uaplab.network import TreeFunction

ZERO = GridFunction.zero()
ONE = GridFunction.constant(1.0)


class TestGridSpec:
    def test_contains_origin_when_odd(self):
        assert 0.0 in cube_points(3.0, 101)[:, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            cube_points(3.0, 1)

    def test_more_than_three_axes_rejected(self):
        with pytest.raises(ValueError):
            cube_points(3.0, 5, dim=4)

    @pytest.mark.parametrize("dim, points", [(1, 401), (2, 31), (3, 5)])
    def test_several_half_widths_stack_their_cubes(self, dim, points):
        """One call for several cubes equals the cubes built one by one
        from their own axis, bit for bit."""
        widths = [1.0, 2.5, 7.0, 20.0]
        want = []
        for h in widths:
            ax = np.linspace(-h, h, points)
            grids = np.meshgrid(*([ax] * dim), indexing="ij")
            want.append(np.stack([g.ravel() for g in grids], axis=1))
        assert (cube_points(widths, points, dim).tobytes()
                == np.concatenate(want).tobytes())
        assert cube_points(widths[1], points, dim).tobytes() == want[1].tobytes()


class TestGridCache:
    @pytest.mark.parametrize("widths", [
        (3, 3.0, [3.0], range(3, 4), np.array([3.0]), np.float64(3.0)),
        (range(1, 21), [float(k) for k in range(1, 21)], np.arange(1.0, 21.0)),
    ])
    def test_equal_grids_are_one_array(self, widths):
        grids = [cube_points(h, 301) for h in widths]
        assert all(g is grids[0] for g in grids)

    def test_grid_is_read_only(self):
        grid = cube_points(2.0, 101)
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0
        assert grid[0, 0] == -2.0

    def test_invalid_grids_raise_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                cube_points(3.0, 1)
            with pytest.raises(ValueError):
                cube_points(3.0, 5, dim=4)

    def test_grid_over_the_limit_is_not_kept(self):
        kept = fs._cached_grid.cache_info().currsize
        first = cube_points(1.0, GRID_CACHE_VALUES + 1)
        second = cube_points(1.0, GRID_CACHE_VALUES + 1)
        assert first is not second
        assert first.tobytes() == second.tobytes()
        assert fs._cached_grid.cache_info().currsize == kept


class TestDucc:
    def test_identity_is_zero(self, sin_fn, grid_1d):
        assert d_ucc(sin_fn, sin_fn, 20, grid_1d) == 0.0

    def test_zero_vs_one_three_terms(self, grid_1d):
        # oracle: sup == 1 on every cube, so the sum is sum_{k<=3} 2^-k / 2
        expected = sum(2.0**-k * 0.5 for k in range(1, 4))
        assert expected == 0.4375
        assert d_ucc(ZERO, ONE, 3, grid_1d) == pytest.approx(expected, abs=1e-15)

    def test_zero_vs_one_full_series(self, grid_1d):
        # geometric series sums to 1/2; truncation misses < 2^-20
        val = d_ucc(ZERO, ONE, 20, grid_1d)
        assert abs(val - 0.5) <= 2.0**-20

    def test_symmetry_exact(self, sin_fn, cos_fn, grid_1d):
        assert d_ucc(sin_fn, cos_fn, 12, grid_1d) == d_ucc(cos_fn, sin_fn, 12, grid_1d)

    def test_bounded_below_one(self, grid_1d):
        big = GridFunction.constant(1e12)
        assert d_ucc(ZERO, big, 20, grid_1d) < 1.0

    def test_monotone_in_terms(self, sin_fn, grid_1d):
        ident = GridFunction.identity()
        for k in (3, 7, 13):
            lo = d_ucc(ident, sin_fn, k, grid_1d)
            hi = d_ucc(ident, sin_fn, k + 1, grid_1d)
            assert lo <= hi <= lo + 2.0 ** -(k + 1)

    def test_triangle_inequality_random_polynomials(self, grid_1d):
        rng = np.random.default_rng(42)
        for _ in range(10):
            c = rng.uniform(-1, 1, (3, 3))
            f, g, h = (
                GridFunction.from_scalar(
                    lambda x, ci=ci: ci[0] + ci[1] * x + ci[2] * x**2,
                )
                for ci in c
            )
            dfg = d_ucc(f, g, 10, grid_1d)
            dfh = d_ucc(f, h, 10, grid_1d)
            dhg = d_ucc(h, g, 10, grid_1d)
            assert dfg <= dfh + dhg + 2 * 2.0**-10

    def test_dimension_mismatch(self, grid_1d):
        f2 = GridFunction.zero(dim_in=2)
        with pytest.raises(DimensionMismatchError):
            d_ucc(ZERO, f2, 5, grid_1d)

    def test_non_finite_value_reports_point(self, grid_1d):
        bad = GridFunction.from_scalar(
            lambda x: np.where(np.abs(x - 1.0) < 1e-12, np.inf, x)
        )
        with pytest.raises(NonFiniteValueError) as err:
            d_ucc(bad, ZERO, 5, grid_1d)
        assert err.value.point is not None


def ducc_term_by_term(f, g, terms, points):
    """The reference d_ucc: one pair of sample calls per cube [-k, k]^m."""
    total = 0.0
    for k in range(1, terms + 1):
        pts = cube_points(float(k), points, f.dim_in)
        diff = f.sample(pts) - g.sample(pts)
        _ensure_finite(diff, pts, f"computing d_ucc term k={k}")
        s = float(np.max(np.linalg.norm(diff, axis=1)))
        total += s / (2.0**k * (1.0 + s))
    return total


def counted(f, sizes):
    """f, recording the number of points of every sample call in sizes."""
    def fn(X):
        sizes.append(len(X))
        return f.sample(X)
    return GridFunction(fn, f.dim_in, f.dim_out, name=f.name)


def ducc_cases():
    leaky = act.by_name("leaky_shifted_paper")
    wave = GridFunction(  # grows with the cube, so every term differs
        lambda X: np.sin(3.0 * X.sum(axis=1, keepdims=True)) + 0.05 * X**2,
        2, 2, name="wave")
    tilt = GridFunction(lambda X: np.cos(X[:, ::-1]) * X[:, :1], 2, 2, name="tilt")
    return {
        # the escape iterate of the blend constructions: s_iter on the stack
        "1d": (apply(CompositionOperator(leaky, 1.0), GridFunction.from_scalar(
            np.sin, name="sin"), 2), GridFunction.identity(), 301),
        "2d": (GridFunction(lambda X: np.sin(X[:, :1] * X[:, 1:]), 2, 1),
               GridFunction(lambda X: 0.01 * (X**2).sum(axis=1), 2, 1), 151),
        "dim_out_2": (wave, tilt, 151),
    }


class TestDuccBatches:
    @pytest.mark.parametrize("terms", [1, 3, 20])
    @pytest.mark.parametrize("case", ["1d", "2d", "dim_out_2"])
    def test_equals_term_by_term(self, case, terms):
        f, g, points = ducc_cases()[case]
        want = ducc_term_by_term(f, g, terms, points)
        assert want > 0.0
        assert d_ucc(f, g, terms, points) == want
        assert d_ucc(g, f, terms, points) == ducc_term_by_term(g, f, terms, points)

    def test_first_non_finite_term_raises_as_the_loop(self, grid_1d):
        # NaN only on [-5, 5] minus [-4, 4]: terms 1-4 are finite, k = 5 is not
        holed = GridFunction.from_scalar(
            lambda x: np.where((np.abs(x) > 4.0) & (np.abs(x) <= 5.0), np.nan, x))
        with pytest.raises(NonFiniteValueError) as want:
            ducc_term_by_term(holed, ZERO, 20, grid_1d)
        with pytest.raises(NonFiniteValueError) as got:
            d_ucc(holed, ZERO, 20, grid_1d)
        assert "computing d_ucc term k=5" in str(got.value)
        assert str(got.value) == str(want.value)
        assert got.value.point == want.value.point
        assert 4.0 < abs(got.value.point[0]) <= 5.0
        assert np.isnan(got.value.value[0]) and np.isnan(want.value.value[0])

    def test_one_sample_call_per_function_on_one_input(self, sin_fn, cos_fn):
        f_sizes, g_sizes = [], []
        d_ucc(counted(sin_fn, f_sizes), counted(cos_fn, g_sizes), 20, 301)
        assert f_sizes == g_sizes == [20 * 301]

    def test_two_input_calls_stay_within_the_batch(self):
        sizes = []
        f = GridFunction(lambda X: X[:, :1] * X[:, 1:], 2, 1)
        d_ucc(counted(f, sizes), GridFunction.zero(dim_in=2), 20, 151)
        assert max(sizes) <= DUCC_BATCH_POINTS
        assert len(sizes) < 20  # consecutive cubes still share calls
        assert sum(sizes) == 20 * 151**2


def node_norm(f, mu, p=1.0, quad_nodes=10_000):
    """lp_norm of f on every one of mu's quad_nodes equal-mass nodes."""
    nodes, w = mu.nodes(quad_nodes)
    return lp_norm(f, nodes[:, None], w, p)


def one_shot_norm(f, pts, w, p):
    """The L^p quadrature of lp_norm with f sampled on every point at once."""
    return (w * np.sum(np.linalg.norm(f.sample(pts), axis=1) ** p)) ** (1.0 / p)


class TestLpNorm:
    @pytest.mark.parametrize("count", [20_000, 2 * LP_BLOCK_POINTS])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_blocks_equal_a_one_shot_sum(self, gauss_mu, count, p):
        nodes, w = gauss_mu.nodes(count)
        # terms from e^-8 to e^8, so that another order of the sum rounds
        # differently
        f = GridFunction.from_scalar(lambda x: np.exp(8.0 * np.sin(1000.0 * x)))
        assert lp_norm(f, nodes[:, None], w, p) == one_shot_norm(
            f, nodes[:, None], w, p)

    def test_calls_stay_within_the_block(self, gauss_mu, sin_fn):
        sizes = []
        nodes, w = gauss_mu.nodes(20_000)
        lp_norm(counted(sin_fn, sizes), nodes[:, None], w)
        assert max(sizes) <= LP_BLOCK_POINTS
        assert len(sizes) == math.ceil(20_000 / LP_BLOCK_POINTS)
        assert sum(sizes) == 20_000

    def test_nan_in_the_last_block_is_reported(self, gauss_mu):
        nodes, w = gauss_mu.nodes(20_000)
        last = nodes[-1]
        f = GridFunction.from_scalar(lambda x: np.where(x == last, np.nan, x))
        with pytest.raises(QuadratureError) as err:
            lp_norm(f, nodes[:, None], w)
        assert err.value.point == [last]

    def test_overflowing_term_names_its_point(self):
        # |f| = 1e150 is finite, |f|^3 is not
        pts = np.linspace(0.0, 1.0, 11)[:, None]
        f = GridFunction.from_scalar(lambda x: np.where(x > 0.5, 1e150, 0.0))
        with pytest.raises(QuadratureError) as err:
            lp_norm(f, pts, 0.1, 3.0)
        assert err.value.point == pts[6].tolist()
        assert err.value.payload()["point"] == pts[6].tolist()

    def test_overflowing_sum_names_no_point(self):
        # every term 1e306 is finite; a thousand of them are not
        pts = np.linspace(0.0, 1.0, 1000)[:, None]
        with pytest.raises(QuadratureError) as err:
            lp_norm(GridFunction.constant(1e102), pts, 1.0, 3.0)
        assert err.value.point is None
        assert err.value.payload()["point"] is None

    def test_zero_function(self, gauss_mu):
        assert node_norm(ZERO, gauss_mu, 1.0) == 0.0

    def test_constant_times_mass(self, gauss_mu):
        assert node_norm(ONE, gauss_mu, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_indicator_exact_integral(self):
        # oracle: integral of 1_[0,2) against unit density is exactly 2
        mu = uniform_window_measure(-10.0, 10.0, 1.0)
        ind = TreeFunction(((1.0, 0.0, 2.0),)).as_gridfunction()
        assert node_norm(ind, mu, 1.0, quad_nodes=10_000) == pytest.approx(2.0, abs=1e-9)

    def test_homogeneity(self, gauss_mu, sin_fn):
        base = node_norm(sin_fn, gauss_mu, 2.0)
        scaled = node_norm(3.5 * sin_fn, gauss_mu, 2.0)
        assert scaled == pytest.approx(3.5 * base, rel=1e-12)

    def test_blowup_raises(self):
        mu = uniform_window_measure(-1.0, 1.0, 1.0)
        def pole_fn(x):
            with np.errstate(divide="ignore"):
                return 1.0 / np.abs(x) ** 8

        pole = GridFunction.from_scalar(pole_fn)
        with pytest.raises(QuadratureError):
            node_norm(pole, mu, 2.0, quad_nodes=1001)

    def test_points_must_match_the_input_dimension(self, gauss_mu):
        with pytest.raises(DimensionMismatchError):
            node_norm(GridFunction.zero(dim_in=2), gauss_mu, 1.0)

    def test_product_measure_two_axes(self):
        # oracle: integral of the indicator of [0,1]^2 against unit density,
        # on the tensor grid of each axis's equal-mass nodes
        (x0, w0), (x1, w1) = (uniform_window_measure(-2, 2, 1.0).nodes(400)
                              for _ in range(2))
        g0, g1 = np.meshgrid(x0, x1, indexing="ij")
        pts = np.stack([g0.ravel(), g1.ravel()], axis=1)
        box = GridFunction(
            lambda X: (
                ((X[:, 0] >= 0) & (X[:, 0] < 1) & (X[:, 1] >= 0) & (X[:, 1] < 1))
                .astype(float)[:, None]
            ),
            2,
            1,
            name="box",
        )
        val = lp_norm(box, pts, w0 * w1, 1.0)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_sup_norm_two_axes_ball_mask(self):
        f = GridFunction(
            lambda X: np.linalg.norm(X, axis=1)[:, None], 2, 1
        )
        # the cube corners are masked out: sup over the ball is the radius
        assert sup_norm_on_ball(f, 2.0, 151) <= 2.0 + 1e-12
        assert sup_norm_on_ball(f, 2.0, 151) >= 1.99


class TestSupNorm:
    def test_zero(self):
        assert sup_norm_on_ball(ZERO, 1.0) == 0.0

    def test_identity_attains_radius(self, ident):
        assert sup_norm_on_ball(ident, 3.0, 301) == pytest.approx(3.0)

    def test_exp_decay_peaks_at_origin(self):
        # oracle: calculus, max of e^{-|x|} at 0 is 1
        f = GridFunction.from_scalar(lambda x: np.exp(-np.abs(x)))
        assert sup_norm_on_ball(f, 5.0, 301) == pytest.approx(1.0)


class TestWeightedSup:
    def test_zero(self):
        res = weighted_sup_norm(ZERO, Weight.power(1))
        assert res.value == 0.0 and not res.diverged

    def test_identity_over_t_approaches_one(self, ident):
        res = weighted_sup_norm(ident, Weight.power(1), 301)
        assert not res.diverged
        assert 0.99 <= res.value < 1.0  # approaches 1 from below

    def test_square_over_t_diverges(self):
        sq = GridFunction.from_scalar(lambda x: x**2)
        assert weighted_sup_norm(sq, Weight.power(1)).diverged

    def test_unit_weight_is_half_sup(self, sin_fn):
        # the running sup visits the doubling-radius grids, so the matched
        # plain supremum is the max over the same family of ball grids
        res = weighted_sup_norm(sin_fn, Weight.unit(), 301)
        radii = []
        r = SUP_START_RADIUS
        while r <= res.radius_reached:
            radii.append(r)
            r *= 2.0
        sup = max(sup_norm_on_ball(sin_fn, r, 301) for r in radii)
        assert res.value == pytest.approx(0.5 * sup, abs=1e-9)


class TestLargeOneOutputValues:
    """One output column is measured by |f(x)|, so values whose square
    overflows (above ~1.34e154) are finite norms."""

    def test_abs_equals_the_euclidean_norm_where_squares_are_normal(self):
        rng = np.random.default_rng(0)
        v = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-150, 150, 20_000)
        got = fs._norms(v[:, None])
        assert np.array_equal(got, np.linalg.norm(v[:, None], axis=1))
        two = np.stack([v, v[::-1]], axis=1)
        assert np.array_equal(fs._norms(two), np.linalg.norm(two, axis=1))

    def test_lp_norm(self):
        pts = np.linspace(0.0, 1.0, 11)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lp_norm(GridFunction.constant(1e300), pts, 1e-10, 1.0)
        assert got == pytest.approx(1.1e291, rel=1e-15)

    def test_d_ucc(self):
        # s_k = 1e200 gives the term 2^-k exactly
        got = d_ucc(GridFunction.constant(1e200), ZERO, 20, 11)
        assert got == 1.0 - 2.0**-20

    def test_sup_norms(self):
        big = GridFunction.constant(-1e200)
        assert sup_norm_on_ball(big, 1.0, 11) == 1e200
        res = weighted_sup_norm(big, Weight.unit(), 11)
        assert res.value == 0.5e200 and not res.diverged


class TestMeasures:
    def test_gaussian_density_integrates_to_mass(self, gauss_mu):
        xs = np.linspace(-12.0, 12.0, 20001)
        mass = np.trapezoid(gauss_mu.density(xs), xs)
        assert mass == pytest.approx(gauss_mu.total_mass, rel=1e-12)

    def test_table_cdf_and_quantile_are_exact(self):
        # density 0 -> 2 -> 0 on [0, 2]: cdf(x) = x**2 below 1
        tri = table_measure([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        assert tri.cdf(np.array([0.5]))[0] == 0.25
        assert tri.quantile(np.array([0.125]))[0] == pytest.approx(0.5, rel=1e-15)
        u = (np.arange(2001) + 0.5) / 2001
        exact = np.where(u <= 0.5, np.sqrt(2.0 * u), 2.0 - np.sqrt(2.0 * (1.0 - u)))
        nodes, w = tri.nodes(2001)
        np.testing.assert_allclose(nodes, exact, rtol=0, atol=1e-15)
        # the equal-mass midpoint rule itself errs by O(n**-1.5) here, where
        # the quantile has a square-root end: -7.6e-6 at 2001 nodes
        for n, tol in ((2001, 1e-5), (20001, 1e-6)):
            nodes, w = tri.nodes(n)
            assert abs(np.sum(nodes**2) * w - 7.0 / 3.0) <= tol

    @pytest.mark.parametrize("seed", range(5))
    def test_table_cdf_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        xs = np.cumsum(rng.uniform(0.1, 2.0, size=12)) - 5.0
        ds = rng.uniform(0.1, 3.0, size=12)
        mu = table_measure(xs, ds)
        x = rng.uniform(xs[0], xs[-1], size=400)
        # trapezoid on the part of x's cell left of x, which the linear
        # density makes exact
        i = np.searchsorted(xs, x, side="right") - 1
        d_x = np.interp(x, xs, ds)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (ds[1:] + ds[:-1]) * np.diff(xs))])
        want = cum[i] + 0.5 * (x - xs[i]) * (ds[i] + d_x)
        np.testing.assert_allclose(mu.cdf(x), want, rtol=1e-14)
        np.testing.assert_allclose(mu.quantile(mu.cdf(x) / mu.total_mass), x,
                                   rtol=1e-14, atol=1e-14 * np.max(np.abs(xs)))
        assert mu.cdf(np.array([xs[0] - 1.0, xs[-1] + 1.0])).tolist() == [
            0.0, mu.total_mass]

    def test_table_quantile_maps_zero_density_to_its_left_end(self):
        # the mass 1/2 is reached on all of [1, 2]
        mu = table_measure([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 0.0, 1.0])
        assert mu.quantile(np.array([0.0, 0.5, 1.0])).tolist() == [0.0, 1.0, 3.0]

    def test_tail_mass_matches_cdf(self, gauss_mu):
        from scipy.special import ndtr

        want = 2 * (1 - ndtr(2.0))
        assert gauss_mu.tail_mass(2.0) == pytest.approx(want, abs=1e-12)

    def test_config_round_trip(self):
        for cfg, mu in (
            ({"density_kind": "gaussian", "params": {"mean": 0.5, "std": 2.0}},
             gaussian_measure(0.5, 2.0)),
            ({"density_kind": "uniform_window",
              "params": {"lo": -3, "hi": 4, "height": 0.5}},
             uniform_window_measure(-3, 4, 0.5)),
            ({"density_kind": "custom_table",
              "params": {"xs": [-1, 0, 1], "densities": [0.5, 1.0, 0.5]}},
             table_measure([-1, 0, 1], [0.5, 1.0, 0.5])),
        ):
            back = measure_from_config(cfg)
            assert back.total_mass == mu.total_mass
            xs = np.linspace(-5.0, 5.0, 41)
            us = np.linspace(0.01, 0.99, 33)
            for name, at in (("density", xs), ("cdf", xs), ("quantile", us)):
                assert np.array_equal(getattr(back, name)(at),
                                      getattr(mu, name)(at)), name

    @pytest.mark.parametrize("cfg, violations", [
        ({"density_kind": "gaussian", "params": {"sdt": 2.0, "mean": 0.0}},
         ["params.sdt: unknown key"]),
        ({"density_kind": "custom_table", "parms": {}, "kind": "x"},
         ["kind: unknown key", "parms: unknown key"]),
    ])
    def test_config_unknown_keys_rejected(self, cfg, violations):
        with pytest.raises(ConfigError) as info:
            measure_from_config(cfg)
        assert info.value.violations == violations

    @pytest.mark.parametrize("mean, std, mass", [
        (0.0, -1.0, 1.0), (0.0, 0.0, 1.0), (0.0, 1.0, -1.0), (0.0, 1.0, 0.0),
        (math.inf, 1.0, 1.0), (0.0, math.nan, 1.0), (0.0, 1.0, math.inf),
    ])
    def test_gaussian_rejects_bad_input(self, mean, std, mass):
        with pytest.raises(ValueError):
            gaussian_measure(mean, std, mass)

    @pytest.mark.parametrize("lo, hi, height", [
        (0.0, math.inf, 1.0), (-math.inf, 0.0, 1.0), (0.0, 1.0, math.inf),
        (-1e308, 1e308, 1.0),
    ])
    def test_window_rejects_non_finite(self, lo, hi, height):
        with pytest.raises(ValueError):
            uniform_window_measure(lo, hi, height)

    def test_table_measure_rejects_bad_input(self):
        with pytest.raises(ValueError):
            table_measure([0, 1], [-1.0, 1.0])

    @pytest.mark.parametrize("xs, densities", [
        ([0.0, math.inf], [1.0, 1.0]), ([0.0, math.nan], [1.0, 1.0]),
        ([0.0, 1.0], [1.0, math.inf]), ([-1e308, 1e308], [1.0, 1.0]),
    ])
    def test_table_measure_rejects_non_finite(self, xs, densities):
        with pytest.raises(ValueError):
            table_measure(xs, densities)


class TestGaussianSpecialFunctions:
    """The numpy/stdlib quantile and cdf against scipy.special."""

    LEVELS = np.concatenate([
        (np.arange(2001) + 0.5) / 2001,  # equal-mass midpoints
        (np.arange(2000) + 0.5) / 2000,
        np.logspace(-300, -1, 600),
        1.0 - np.logspace(-16, -1, 300),
        [0.0, 1.0, 0.5],
    ])

    def test_quantile_matches_scipy(self):
        from scipy.special import ndtri

        got, want = _ndtri(self.LEVELS), ndtri(self.LEVELS)
        inf = np.isinf(want)
        assert inf.sum() == 2
        assert np.array_equal(got[inf], want[inf])  # exactly -inf at 0, +inf at 1
        assert got[self.LEVELS == 0.5].tolist() == [0.0, 0.0]
        assert np.all(np.abs(got[~inf] - want[~inf]) <= 1e-14 * np.abs(want[~inf]))

    def test_quantile_nan_outside_unit_interval(self):
        assert np.isnan(_ndtri(np.array([-0.1, 1.1, np.nan]))).all()

    def test_cdf_matches_scipy(self):
        from scipy.special import ndtr, ndtri

        z = ndtri(self.LEVELS)  # |z| up to 37
        got, want = _ndtr(z), ndtr(z)
        inf = np.isinf(z)
        assert np.array_equal(got[inf], want[inf])
        # erfc's relative condition number at |z|/sqrt(2) is z^2, so the one
        # rounding of the argument costs either side up to ~z^2 eps/2
        tol = 1e-14 + 2 * np.finfo(float).eps * z[~inf] ** 2
        assert np.all(np.abs(got[~inf] - want[~inf]) <= tol * want[~inf])
        assert _ndtr(np.array([0.0]))[0] == 0.5


class TestWeightFamily:
    def test_config_round_trip(self):
        want = (Weight.unit(), Weight.power(1), Weight.max_t_power(2),
                Weight.exp_decay(3))
        back = weights_from_config([
            {"kind": "unit"}, {"kind": "power", "i": 1},
            {"kind": "max_t_power", "i": 2}, {"kind": "exp_decay", "k": 3}])
        t = np.linspace(0, 10, 50)
        assert len(back) == len(want)
        for w1, w2 in zip(want, back):
            assert (w1.kind, w1.param) == (w2.kind, w2.param)
            assert np.allclose(w1(t), w2(t))

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError):
            weights_from_config([])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as info:
            weights_from_config([{"kind": "unit"}, {"kind": "power", "i": 1, "k": 2}])
        assert info.value.violations == ["k: unknown key"]
