"""Metric and norm behavior on grid-backed functions.

Expected values are frozen from independent oracles: closed-form integrals,
geometric-series sums, and calculus, recomputed in-line where cheap.
"""

import numpy as np
import pytest

from uaplab import activations as act
from uaplab.depth_dynamics import CompositionOperator, apply
from uaplab.errors import DimensionMismatchError, NonFiniteValueError, QuadratureError
from uaplab.function_space import (
    DUCC_BATCH_POINTS,
    GridFunction,
    _ensure_finite,
    _ndtr,
    _ndtri,
    GridSpec,
    Weight,
    WeightFamily,
    d_ucc,
    d_ucc_tail_bound,
    gaussian_measure,
    lp_norm,
    measure_from_config,
    measure_to_config,
    sup_norm_on_ball,
    table_measure,
    uniform_window_measure,
    weighted_sup_norm,
)
from uaplab.network import TreeFunction

ZERO = GridFunction.zero()
ONE = GridFunction.constant(1.0)


class TestGridSpec:
    def test_contains_origin_when_odd(self):
        assert 0.0 in GridSpec(points_per_axis=101).cube_points(3.0)[:, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(points_per_axis=1)
        with pytest.raises(ValueError):
            GridSpec(radius=0.0)

    def test_round_trip_config(self):
        g = GridSpec(2, 3, 65, 4.0)
        assert GridSpec.from_config(g.to_config()) == g

    def test_refined_doubles_resolution(self):
        g = GridSpec(points_per_axis=101)
        assert g.refined(2).points_per_axis == 201


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
        assert abs(val - 0.5) <= d_ucc_tail_bound(20)

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
            assert lo <= hi <= lo + d_ucc_tail_bound(k + 1)

    def test_triangle_inequality_random_polynomials(self, grid_1d):
        rng = np.random.default_rng(42)
        for _ in range(10):
            c = rng.uniform(-1, 1, (3, 3))
            f, g, h = (
                GridFunction.from_scalar(
                    lambda x, ci=ci: ci[0] + ci[1] * x + ci[2] * x**2,
                    unbounded=True,
                )
                for ci in c
            )
            dfg = d_ucc(f, g, 10, grid_1d)
            dfh = d_ucc(f, h, 10, grid_1d)
            dhg = d_ucc(h, g, 10, grid_1d)
            assert dfg <= dfh + dhg + 2 * d_ucc_tail_bound(10)

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


def ducc_term_by_term(f, g, terms, grid):
    """The reference d_ucc: one pair of sample calls per cube [-k, k]^m."""
    total = 0.0
    for k in range(1, terms + 1):
        pts = grid.cube_points(float(k))
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
            np.sin, name="sin"), 2), GridFunction.identity(),
            GridSpec(points_per_axis=301)),
        "2d": (GridFunction(lambda X: np.sin(X[:, :1] * X[:, 1:]), 2, 1),
               GridFunction(lambda X: 0.01 * (X**2).sum(axis=1), 2, 1),
               GridSpec(dim_in=2, points_per_axis=151)),
        "dim_out_2": (wave, tilt, GridSpec(dim_in=2, dim_out=2, points_per_axis=151)),
    }


class TestDuccBatches:
    @pytest.mark.parametrize("terms", [1, 3, 20])
    @pytest.mark.parametrize("case", ["1d", "2d", "dim_out_2"])
    def test_equals_term_by_term(self, case, terms):
        f, g, grid = ducc_cases()[case]
        want = ducc_term_by_term(f, g, terms, grid)
        assert want > 0.0
        assert d_ucc(f, g, terms, grid) == want
        assert d_ucc(g, f, terms, grid) == ducc_term_by_term(g, f, terms, grid)

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
        grid = GridSpec(points_per_axis=301)
        d_ucc(counted(sin_fn, f_sizes), counted(cos_fn, g_sizes), 20, grid)
        assert f_sizes == g_sizes == [20 * 301]

    def test_two_input_calls_stay_within_the_batch(self):
        sizes = []
        grid = GridSpec(dim_in=2, points_per_axis=151)
        f = GridFunction(lambda X: X[:, :1] * X[:, 1:], 2, 1)
        d_ucc(counted(f, sizes), GridFunction.zero(dim_in=2), 20, grid)
        assert max(sizes) <= DUCC_BATCH_POINTS
        assert len(sizes) < 20  # consecutive cubes still share calls
        assert sum(sizes) == 20 * 151**2


class TestLpNorm:
    def test_zero_function(self, gauss_mu):
        assert lp_norm(ZERO, gauss_mu, 1.0) == 0.0

    def test_constant_times_mass(self, gauss_mu):
        assert lp_norm(ONE, gauss_mu, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_indicator_exact_integral(self):
        # oracle: integral of 1_[0,2) against unit density is exactly 2
        mu = uniform_window_measure(-10.0, 10.0, 1.0)
        ind = TreeFunction(((1.0, 0.0, 2.0),)).as_gridfunction()
        assert lp_norm(ind, mu, 1.0, quad_nodes=10_000) == pytest.approx(2.0, abs=1e-9)

    def test_homogeneity(self, gauss_mu, sin_fn):
        base = lp_norm(sin_fn, gauss_mu, 2.0)
        scaled = lp_norm(3.5 * sin_fn, gauss_mu, 2.0)
        assert scaled == pytest.approx(3.5 * base, rel=1e-12)

    def test_blowup_raises(self):
        mu = uniform_window_measure(-1.0, 1.0, 1.0)
        def pole_fn(x):
            with np.errstate(divide="ignore"):
                return 1.0 / np.abs(x) ** 8

        pole = GridFunction.from_scalar(pole_fn, unbounded=True)
        with pytest.raises(QuadratureError):
            lp_norm(pole, mu, 2.0, quad_nodes=1001)

    def test_needs_measure_per_axis(self, gauss_mu):
        with pytest.raises(DimensionMismatchError):
            lp_norm(GridFunction.zero(dim_in=2), gauss_mu, 1.0)

    def test_product_measure_two_axes(self):
        # oracle: integral of the indicator of [0,1]^2 against unit density
        mus = [uniform_window_measure(-2, 2, 1.0), uniform_window_measure(-2, 2, 1.0)]
        box = GridFunction(
            lambda X: (
                ((X[:, 0] >= 0) & (X[:, 0] < 1) & (X[:, 1] >= 0) & (X[:, 1] < 1))
                .astype(float)[:, None]
            ),
            2,
            1,
            name="box",
        )
        val = lp_norm(box, mus, 1.0, quad_nodes=400)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_sup_norm_two_axes_ball_mask(self):
        f = GridFunction(
            lambda X: np.linalg.norm(X, axis=1)[:, None], 2, 1, unbounded=True
        )
        grid = GridSpec(dim_in=2, dim_out=1, points_per_axis=151)
        # the cube corners are masked out: sup over the ball is the radius
        assert sup_norm_on_ball(f, 2.0, grid) <= 2.0 + 1e-12
        assert sup_norm_on_ball(f, 2.0, grid) >= 1.99


class TestSupNorm:
    def test_zero(self):
        assert sup_norm_on_ball(ZERO, 1.0) == 0.0

    def test_identity_attains_radius(self, ident):
        grid = GridSpec(points_per_axis=301)
        assert sup_norm_on_ball(ident, 3.0, grid) == pytest.approx(3.0)

    def test_exp_decay_peaks_at_origin(self):
        # oracle: calculus, max of e^{-|x|} at 0 is 1
        f = GridFunction.from_scalar(lambda x: np.exp(-np.abs(x)))
        grid = GridSpec(points_per_axis=301)
        assert sup_norm_on_ball(f, 5.0, grid) == pytest.approx(1.0)


class TestWeightedSup:
    def test_zero(self):
        res = weighted_sup_norm(ZERO, Weight.power(1))
        assert res.value == 0.0 and not res.diverged

    def test_identity_over_t_approaches_one(self, ident):
        res = weighted_sup_norm(ident, Weight.power(1), GridSpec(points_per_axis=301))
        assert not res.diverged
        assert 0.99 <= res.value < 1.0  # approaches 1 from below

    def test_square_over_t_diverges(self):
        sq = GridFunction.from_scalar(lambda x: x**2, unbounded=True)
        assert weighted_sup_norm(sq, Weight.power(1)).diverged

    def test_unit_weight_is_half_sup(self, sin_fn):
        # the running sup visits the doubling-radius grids, so the matched
        # plain supremum is the max over the same family of ball grids
        grid = GridSpec(points_per_axis=301)
        res = weighted_sup_norm(sin_fn, Weight.unit(), grid)
        radii = []
        r = max(grid.radius, 1.0)
        while r <= res.radius_reached:
            radii.append(r)
            r *= 2.0
        sup = max(sup_norm_on_ball(sin_fn, r, grid) for r in radii)
        assert res.value == pytest.approx(0.5 * sup, abs=1e-9)


class TestMeasures:
    def test_gaussian_validates(self, gauss_mu):
        assert gauss_mu.validate()

    def test_tail_mass_matches_cdf(self, gauss_mu):
        from scipy.special import ndtr

        want = 2 * (1 - ndtr(2.0))
        assert gauss_mu.tail_mass(2.0) == pytest.approx(want, abs=1e-12)

    def test_config_round_trip(self):
        for mu in (
            gaussian_measure(0.5, 2.0),
            uniform_window_measure(-3, 4, 0.5),
            table_measure([-1, 0, 1], [0.5, 1.0, 0.5]),
        ):
            back = measure_from_config(measure_to_config(mu))
            assert back.kind == mu.kind
            assert back.total_mass == pytest.approx(mu.total_mass, rel=1e-12)

    def test_table_measure_rejects_bad_input(self):
        with pytest.raises(ValueError):
            table_measure([0, 1], [-1.0, 1.0])


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
    def test_contains_unit_detection(self):
        fam = WeightFamily((Weight.unit(), Weight.power(2)))
        assert fam.contains_unit
        fam2 = WeightFamily((Weight.power(1),))
        assert not fam2.contains_unit

    def test_config_round_trip(self):
        fam = WeightFamily(
            (Weight.unit(), Weight.power(1), Weight.max_t_power(2), Weight.exp_decay(3))
        )
        back = WeightFamily.from_config(fam.to_config())
        t = np.linspace(0, 10, 50)
        for w1, w2 in zip(fam.weights, back.weights):
            assert np.allclose(w1(t), w2(t))
