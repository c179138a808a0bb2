"""Weighted-space machinery: envelope transform, vanishing/growth pipelines,
the weight isometry, and the best-constant separation demo."""

import numpy as np
import pytest

from uaplab import function_space as fs
from uaplab import omega_modification as om
from uaplab.errors import NoControllingWeightError, PreconditionError
from uaplab.function_space import (
    SUP_START_RADIUS,
    GridFunction,
    Weight,
    cube_points,
    sup_norm_on_ball,
    weighted_sup_norm,
)
from uaplab.network import TreeFunction

FIT = 256  # fit width


def _doubling_radii(reached):
    radii = []
    r = SUP_START_RADIUS
    while r <= reached:
        radii.append(r)
        r *= 2.0
    return radii


class TestBumpTransform:
    def test_constant_outside_for_zero_inner(self):
        out = om.bump_transform(GridFunction.zero(), 0.5, 1.0)
        xs = np.linspace(1.5, 30.0, 101)[:, None]  # outside ||x||^2 < 1
        assert np.allclose(out.sample(xs), 0.5)

    def test_center_value(self):
        # oracle: 0 * e^{-1/(1-0)} + 0.5 = 0.5
        out = om.bump_transform(GridFunction.zero(), 0.5, 1.0)
        assert out(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_bump_factor_scales_inner_value(self):
        out = om.bump_transform(GridFunction.constant(2.0), 0.5, 1.0)
        assert out(0.0) == pytest.approx(2.0 * np.exp(-1.0) + 0.5, abs=1e-12)

    def test_continuity_across_boundary(self, sin_fn):
        out = om.bump_transform(sin_fn, 0.25, 4.0)
        boundary = np.sqrt(4.0)
        for d in (1e-3, 1e-4, 1e-5, 1e-6):
            inner = out(boundary - d)
            outer = out(boundary + d)
            assert abs(inner - 0.25) < 0.05 * d / 1e-6 + 1e-2
        assert abs(out(boundary - 1e-8) - 0.25) < 1e-6
        assert abs(out(boundary + 1e-8) - 0.25) < 1e-6

    def test_params_validation(self):
        with pytest.raises(ValueError):
            om.bump_transform(GridFunction.zero(), 0.0, 1.0)

    def test_non_positive_b_rejected(self):
        with pytest.raises(ValueError):
            om.bump_transform(GridFunction.zero(), 0.5, -1.0)


class TestApproximateVanishing:
    def test_zero_function(self):
        f_eps, rep = om.approximate_vanishing(GridFunction.zero(), 0.1, FIT)
        assert rep["sup_error"] <= 0.05 + 1e-12  # offset level eps/2

    def test_gaussian_bump(self):
        gauss = GridFunction.from_scalar(lambda x: np.exp(-(x**2)), name="gauss")
        f_eps, rep = om.approximate_vanishing(gauss, 0.2, FIT)
        assert rep["sup_error"] < 0.2
        # criterion wording: measured on [-15, 15]
        xs = np.linspace(-15, 15, 4001)[:, None]
        err = np.max(np.abs(gauss.sample(xs) - f_eps.sample(xs)))
        assert err < 0.2

    def test_soundness_on_wider_finer_grid(self):
        gauss = GridFunction.from_scalar(lambda x: np.exp(-(x**2)))
        f_eps, rep = om.approximate_vanishing(gauss, 0.2, FIT)
        pts = cube_points(2.0 * rep["wide_radius"], 4001)
        err = float(np.max(np.abs(gauss.sample(pts) - f_eps.sample(pts))))
        assert err < 0.2 * 1.1

    def test_trivial_tolerance(self):
        gauss = GridFunction.from_scalar(lambda x: np.exp(-(x**2)))
        f_eps, rep = om.approximate_vanishing(gauss, 2.0, FIT)
        assert rep["sup_error"] < 2.0

    def test_non_vanishing_rejected(self):
        one = GridFunction.constant(1.0)
        with pytest.raises(PreconditionError):
            om.approximate_vanishing(one, 0.1, FIT)

    def test_growth_condition_of_fitted_core(self):
        # piecewise-affine nets grow at most linearly, so sup |g| e^{-|x|}
        # is finite; check decay numerically on an expanding grid
        gauss = GridFunction.from_scalar(lambda x: np.exp(-(x**2)))
        f_eps, rep = om.approximate_vanishing(gauss, 0.2, FIT)
        vals = []
        for radius in (10.0, 100.0, 1000.0):
            xs = np.linspace(-radius, radius, 1001)[:, None]
            v = np.max(np.abs(f_eps.sample(xs))[:, 0] * np.exp(-np.abs(xs[:, 0])))
            vals.append(v)
        assert vals[2] <= vals[1] <= vals[0] + 1e-9


class TestWeightMaps:
    def test_zero_weight_is_identity(self, sin_fn):
        out = om.phi_omega(sin_fn, lambda t: np.zeros_like(t))
        xs = np.linspace(-3, 3, 101)[:, None]
        assert np.array_equal(out.sample(xs), sin_fn.sample(xs))

    def test_linear_weight_value(self):
        out = om.phi_omega(GridFunction.constant(1.0), Weight.power(1))
        assert out(3.0) == pytest.approx(4.0, abs=1e-15)

    def test_inverse_pair(self, sin_fn):
        w = Weight.max_t_power(2)
        forth = om.phi_omega(sin_fn, w)
        back = om.psi_omega(forth, w)
        xs = np.random.default_rng(0).uniform(-40, 40, (100, 1))
        assert np.max(np.abs(back.sample(xs) - sin_fn.sample(xs))) < 1e-12

    def test_isometry_between_weighted_and_plain_norms(self):
        rng = np.random.default_rng(1)
        for w in (Weight.unit(), Weight.power(1), Weight.max_t_power(2)):
            for _ in range(5):
                c = rng.uniform(-1, 1, 4)
                f = GridFunction.from_scalar(
                    lambda x, c=c: c[0] * np.sin(x) + c[1] * np.cos(2 * x)
                )
                g = GridFunction.from_scalar(
                    lambda x, c=c: c[2] * np.cos(x) + c[3] * np.sin(3 * x)
                )
                lifted = om.phi_omega(f, w) - om.phi_omega(g, w)
                res = weighted_sup_norm(lifted, w, 301)
                plain = max(
                    sup_norm_on_ball(f - g, r, 301)
                    for r in _doubling_radii(res.radius_reached)
                )
                assert res.value == pytest.approx(plain, abs=1e-9)


class TestApproximateGrowth:
    def family(self):
        return (Weight.unit(), Weight.power(1), Weight.max_t_power(2))

    def test_zero_target(self):
        result, rep = om.approximate_growth(
            GridFunction.zero(), self.family(), 0.1, FIT
        )
        xs = np.linspace(-30, 30, 501)[:, None]
        assert np.max(np.abs(result.sample(xs))) < 0.1

    def test_linear_growth_target(self):
        f = GridFunction.from_scalar(
            lambda x: x * np.exp(-(x**2)) + x, name="gauss_linear"
        )
        result, rep = om.approximate_growth(f, self.family(), 0.1, 512)
        assert rep["weighted_error"] < 0.1
        assert rep["weight_kind"] in ("power", "max_t_power")

    def test_weights_share_their_grids(self, monkeypatch):
        """Each distinct grid is built once: the weighted sup norms of the
        three weights miss the cache once per radius, not once per weight
        and radius."""
        requests = []

        def recorded(half_width, points, dim=1):
            requests.append((float(half_width), points, dim))
            return cube_points(half_width, points, dim)

        monkeypatch.setattr(fs, "cube_points", recorded)
        monkeypatch.setattr(om, "cube_points", recorded)
        fs._cached_grid.cache_clear()
        f = GridFunction.from_scalar(
            lambda x: x * np.exp(-(x**2)) + x, name="gauss_linear"
        )
        om.approximate_growth(f, self.family(), 0.1, 256)
        norms = [r for r in requests if r[1] == om.NORM_POINTS]
        assert len(norms) > len(set(norms))
        assert fs._cached_grid.cache_info().misses == len(set(requests))

    def test_weighted_error_covers_the_line(self):
        # the CLI default: the weighted error is the vanishing sup error (the
        # phi/psi isometry), and no point of a wider grid exceeds it
        f = GridFunction.from_scalar(
            lambda x: x * np.exp(-(x**2)) + x, name="gauss_linear"
        )
        family = self.family()
        result, rep = om.approximate_growth(f, family, 0.1, 256)
        assert rep["weighted_error"] == rep["vanishing"]["sup_error"]
        w = family[rep["weight_index"]]
        pts = cube_points(1000.0, 200_001)
        denom = np.asarray(w(np.abs(pts[:, 0]))) + 1.0
        wide = float(np.max(np.abs(f.sample(pts) - result.sample(pts))[:, 0] / denom))
        assert rep["weighted_error"] >= (1.0 - 1e-5) * wide

    def test_small_core_checked_to_min_wide_radius(self):
        # zero on [-2, 2], so every candidate's shell search stops at R = 1
        # (wide radius 3.33); the bump on [10, 11] is still seen and fails
        bump = TreeFunction(((100.0, 10.0, 11.0),)).as_gridfunction()
        with pytest.raises(NoControllingWeightError) as err:
            om.approximate_growth(bump, self.family(), 0.1, FIT)
        # every weight has a finite norm and fails its error check
        assert all(flag.startswith("norm ") and "; " in flag
                   for flag in err.value.flags.values())

    def test_uncontrolled_growth_rejected(self):
        boom = GridFunction.from_scalar(
            lambda x: np.exp(x**2), name="boom"
        )
        with pytest.raises(NoControllingWeightError) as err:
            om.approximate_growth(boom, self.family(), 0.5, FIT)
        assert err.value.flags  # per-weight divergence flags are reported


class TestLimitationDemo:
    def test_best_constant_is_half(self):
        rep = om.demonstrate_limitation()
        # oracle: range of e^{-|x|} is (0, 1], minimax constant is 1/2
        assert rep["best_error"] == pytest.approx(0.5, abs=0.01)
        assert rep["best_constant"] == pytest.approx(0.5, abs=0.01)

    def test_every_constant_at_least_half(self):
        pts = cube_points(30.0, 4001)
        target = np.exp(-np.abs(pts[:, 0]))
        for c in np.linspace(-2, 2, 81):
            err = np.max(np.abs(target - c))
            assert err >= 0.5 - 1e-9

    def test_unbounded_sample_flagged(self):
        rep = om.demonstrate_limitation(
            [
                om.LimitationSample("constant", "half", value=0.5),
                om.LimitationSample("unbounded", "linear"),
            ]
        )
        errors = {e["label"]: e["error"] for e in rep["sample_errors"]}
        assert errors["half"] == pytest.approx(0.5, abs=0.01)
        assert np.isinf(errors["linear"])

    def test_invalid_sample_kind(self):
        with pytest.raises(ValueError):
            om.LimitationSample("polynomial", "p")
