"""Composition-operator iteration, escape times, and certificates."""

import math

import numpy as np
import pytest

from uaplab import activations as act
from uaplab import depth_dynamics as dd
from uaplab import function_space as fs
from uaplab.errors import NoEscapeError, PreconditionError, QuadratureError
from uaplab.function_space import (
    GridFunction,
    cube_points,
    d_ucc,
)
from uaplab.network import TreeFunction

from test_function_space import node_norm
from test_rate_bounds import cube_transitive


def shifted_op(leaky_shifted, b=1.0, m=1):
    return dd.CompositionOperator(leaky_shifted, np.full(m, b))


class TestOperator:
    def test_positive_shift_required(self, leaky_shifted):
        with pytest.raises(PreconditionError):
            dd.CompositionOperator(leaky_shifted, np.array([0.0]))

    def test_finite_shift_required(self, leaky_shifted):
        with pytest.raises(PreconditionError):
            dd.CompositionOperator(leaky_shifted, np.array([1.0, np.inf]))

    def test_nonempty_shift_required(self, leaky_shifted):
        with pytest.raises(PreconditionError):
            dd.CompositionOperator(leaky_shifted, np.array([]))

    def test_apply_zero_is_identity(self, leaky_shifted, sin_fn):
        op = shifted_op(leaky_shifted)
        assert dd.apply(op, sin_fn, 0) is sin_fn

    def test_single_step_value(self, leaky_shifted, ident):
        # oracle: S(0) = sigma(1) = 1.1 + 0.1
        op = shifted_op(leaky_shifted)
        f1 = dd.apply(op, ident, 1)
        assert f1(0.0) == pytest.approx(1.2, abs=1e-12)

    def test_iteration_additivity(self, leaky_shifted, sin_fn):
        op = shifted_op(leaky_shifted)
        xs = np.random.default_rng(0).uniform(-5, 5, (100, 1))
        lhs = dd.apply(op, sin_fn, 5).sample(xs)
        rhs = dd.apply(op, dd.apply(op, sin_fn, 2), 3).sample(xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_linearity(self, leaky_shifted, sin_fn, cos_fn):
        op = shifted_op(leaky_shifted)
        combo = 2.5 * sin_fn + cos_fn
        xs = np.random.default_rng(1).uniform(-8, 8, (200, 1))
        lhs = dd.apply(op, combo, 4).sample(xs)
        rhs = 2.5 * dd.apply(op, sin_fn, 4).sample(xs) + dd.apply(op, cos_fn, 4).sample(xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_orbit_strictly_increasing(self, leaky_shifted):
        op = shifted_op(leaky_shifted)
        pts = np.random.default_rng(2).uniform(-20, 20, (50, 1))
        prev = pts
        for n in range(1, 51):
            cur = op.iterate(pts, n)
            assert np.all(cur > prev)
            prev = cur

    def test_inverse_iterate_roundtrip(self, leaky_shifted):
        op = shifted_op(leaky_shifted)
        pts = np.random.default_rng(3).uniform(-10, 10, (100, 1))
        fwd = op.iterate(pts, 7)
        assert np.max(np.abs(op.inverse_iterate(fwd, 7) - pts)) < 1e-9

    def test_operator_matches_stacked_net(self, leaky_shifted):
        # appending frozen identity+shift layers to a net is the same map as
        # applying the composition operator to the net's function
        from uaplab.network import AffineLayer, FeedForwardNet, identity_layer, stack

        op = shifted_op(leaky_shifted)
        net = FeedForwardNet(
            (
                AffineLayer(np.array([[1.3], [-0.4]]), np.array([0.2, 0.7]), True),
                AffineLayer(np.array([[0.5, 1.0]]), np.array([-0.1]), False),
            ),
            leaky_shifted,
        )
        deep = stack(net, [identity_layer(1, 1.0) for _ in range(4)])
        via_operator = dd.apply(op, net.as_gridfunction(), 4)
        xs = np.random.default_rng(4).uniform(-6, 6, (200, 1))
        assert np.max(np.abs(deep.sample(xs) - via_operator.sample(xs))) < 1e-12


class TestEscapeTime:
    def test_corner_iteration_values(self, leaky_shifted):
        # oracle: S^n(-2) = 0, 1.2, 2.52 -> first clear of [-2,2] at n=3;
        # S^n(-5) = -0.3, 0.87, 2.157, 3.5727, 5.12997 -> n=5
        op = shifted_op(leaky_shifted)
        assert dd.escape_time(op, 2.0, 2.0)[0] == 3
        assert dd.escape_time(op, 5.0, 5.0)[0] == 5

    def test_guard_beyond_cube(self, leaky_shifted):
        op = shifted_op(leaky_shifted)
        assert dd.escape_time(op, 5.0, 6.0)[0] == 6

    def test_monotone_in_radius(self, leaky_shifted):
        op = shifted_op(leaky_shifted)
        times = [dd.escape_time(op, r, r)[0]
                 for r in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_relu_rejected(self, relu):
        op = dd.CompositionOperator(relu, np.array([1.0]))
        with pytest.raises(PreconditionError):
            dd.escape_time(op, 2.0, 2.0)

    def test_stalled_orbit_reports_no_escape(self):
        # x -> x - 1 composed with shift 1 is the identity map
        below = act.ActivationSpec(
            "below", [act.Branch(-math.inf, math.inf, "affine", (1.0, -1.0))]
        )
        op = dd.CompositionOperator(below, np.array([1.0]))
        with pytest.raises(NoEscapeError):
            dd.escape_time(op, 1.0, 1.0, max_N=64)

    def test_multidimensional_cube(self, leaky_shifted):
        op = dd.CompositionOperator(leaky_shifted, np.array([1.0, 1.0]))
        assert dd.escape_time(op, 2.0, 2.0)[0] == 3


@pytest.mark.parametrize("spec", [act.by_name("leaky_shifted_paper"),
                                  cube_transitive()], ids=["leaky", "cube"])
def test_blend_equals_the_full_formula(spec, ident, sin_fn):
    # the blend skips the pullback where w = 1 and g where w = 0; on the
    # certificate's d_ucc grids (and their images under S^N, where d_target
    # samples it) it equals the formula evaluated everywhere, bit for bit
    op = dd.CompositionOperator(spec, np.array([1.0]))
    radius = 5.0
    n, lo, hi, blend, _ = dd._escape_blend_fit(op, ident, sin_fn, radius)
    grid = cube_points(range(1, 21), dd.UCC_POINTS)
    Y = np.concatenate([grid, op.iterate(grid, n), [[np.nan]]])
    pulled = sin_fn.sample(op.inverse_iterate(np.clip(Y, lo, hi), n))
    dist = np.max(np.maximum(lo - Y, Y - hi).clip(min=0.0), axis=1)
    w = np.clip(dist / dd.BLEND_MARGIN, 0.0, 1.0)[:, None]
    want = (1.0 - w) * pulled + w * ident.sample(Y)
    got = blend.sample(Y)
    assert np.any(w == 0) and np.any((0 < w) & (w < 1)) and np.isnan(got[-1, 0])
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestUniformCertificate:
    def test_trivial_equal_functions(self, leaky_shifted, sin_fn):
        op = shifted_op(leaky_shifted)
        _, cert = dd.construct_transitive_approximant(op, sin_fn, sin_fn, 0.1, 0.1)
        assert cert["N"] == 0 and cert["d_seed"] == 0.0 and cert["d_target"] == 0.0
        assert isinstance(cert["k0"], float)

    def test_identity_to_sine(self, leaky_shifted, ident, sin_fn):
        op = shifted_op(leaky_shifted)
        _, cert = dd.construct_transitive_approximant(op, ident, sin_fn, 0.1, 0.1)
        assert cert["k0"] == 5 and isinstance(cert["k0"], float)
        assert cert["N"] == 6  # escape of [-5,5] past guard 6
        assert cert["d_seed"] < 0.1 and cert["d_target"] < 0.1

    def test_soundness_on_finer_grid(self, leaky_shifted, ident, sin_fn):
        op = shifted_op(leaky_shifted)
        g_tilde, cert = dd.construct_transitive_approximant(op, ident, sin_fn, 0.1, 0.1)
        d_seed = d_ucc(ident, g_tilde, 20, 601)
        d_target = d_ucc(sin_fn, dd.apply(op, g_tilde, cert["N"]), 20, 601)
        assert d_seed < 0.1 * 1.1 and d_target < 0.1 * 1.1

    def test_escape_box_clears_guard_cube(self, leaky_shifted, ident, sin_fn):
        op = shifted_op(leaky_shifted)
        _, cert = dd.construct_transitive_approximant(op, ident, sin_fn, 0.1, 0.1)
        guard = cert["k0"] + cert["blend_margin"]
        assert min(cert["escape_lo"]) > guard or max(cert["escape_hi"]) < -guard

    def test_three_distances_build_one_grid(self, leaky_shifted, ident, sin_fn):
        fs._cached_grid.cache_clear()
        dd.construct_transitive_approximant(shifted_op(leaky_shifted), ident,
                                            sin_fn, 0.1, 0.1)
        info = fs._cached_grid.cache_info()
        assert info.misses <= 1 and info.hits >= 2  # d0, d_seed and d_target

    def test_large_delta_is_vacuous(self, leaky_shifted, ident, cos_fn):
        op = shifted_op(leaky_shifted)
        _, cert = dd.construct_transitive_approximant(op, ident, cos_fn, 0.1, 2.0)
        assert cert["d_seed"] < 1.0  # the metric itself is below 1

    def test_rescaled_rejected_for_uniform_version(self, leaky_rescaled, ident, sin_fn):
        op = dd.CompositionOperator(leaky_rescaled, np.array([1.0]))
        with pytest.raises(PreconditionError):
            dd.construct_transitive_approximant(op, ident, sin_fn, 0.1, 0.1)

    def test_shrinking_tolerance_grows_depth(self, leaky_shifted, ident, sin_fn):
        op = shifted_op(leaky_shifted)
        _, loose = dd.construct_transitive_approximant(op, ident, sin_fn, 0.1, 0.1)
        _, tight = dd.construct_transitive_approximant(op, ident, sin_fn, 0.05, 0.05)
        assert tight["k0"] >= loose["k0"] and tight["N"] >= loose["N"]

    def test_fitter_variant(self, leaky_shifted, ident, sin_fn):
        op = shifted_op(leaky_shifted)
        _, cert = dd.construct_transitive_approximant(
            op, ident, sin_fn, 0.1, 0.1,
            width=512,
        )
        assert cert["fit_residual"] is not None
        assert cert["d_seed"] < 0.1 and cert["d_target"] < 0.1

    def test_serialization(self, leaky_shifted, ident, sin_fn):
        op = shifted_op(leaky_shifted)
        _, cert = dd.construct_transitive_approximant(op, ident, sin_fn, 0.2, 0.2)
        guard = cert["k0"] + cert["blend_margin"]
        n, lo, hi = dd.escape_time(op, cert["k0"], guard)
        assert (cert["N"], cert["escape_lo"], cert["escape_hi"]) == (
            n, lo.tolist(), hi.tolist())
        assert cert["metric"] == "d_ucc"
        assert cert["activation"] == "leaky_shifted_paper"
        assert cert["b"] == [1.0] and cert["fit_residual"] is None

    def test_two_dimensional_certificate(self, leaky_shifted):
        op = dd.CompositionOperator(leaky_shifted, np.array([1.0, 1.0]))
        zero = GridFunction.zero(dim_in=2)
        bump = GridFunction(
            lambda X: np.exp(-np.sum(X * X, axis=1))[:, None], 2, 1, name="bump"
        )
        _, cert = dd.construct_transitive_approximant(
            op, zero, bump, 0.2, 0.2, points=41
        )
        assert cert["N"] > 0
        assert cert["d_seed"] < 0.2 and cert["d_target"] < 0.2


class TestIntegrableCertificate:
    def test_trivial_equal_functions(self, leaky_rescaled, gauss_mu):
        op = dd.CompositionOperator(leaky_rescaled, np.array([1.0]))
        zero = GridFunction.zero()
        _, cert = dd.l1_transitive_approximant(op, zero, zero, gauss_mu, 0.1, 0.1)
        assert cert["N"] == 0 and cert["d_seed"] == 0.0

    def test_indicator_target(self, leaky_rescaled, gauss_mu):
        op = dd.CompositionOperator(leaky_rescaled, np.array([1.0]))
        zero = GridFunction.zero()
        tree = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()
        g_tilde, cert = dd.l1_transitive_approximant(op, zero, tree, gauss_mu, 0.1, 0.1)
        assert cert["N"] >= 1
        assert cert["d_seed"] < 0.1 and cert["d_target"] < 0.1
        # quadrature re-measurement at doubled node count stays within bounds
        d2 = node_norm(tree - dd.apply(op, g_tilde, cert["N"]), gauss_mu, 1.0, 40_000)
        assert d2 < 0.1 * 1.1

    def test_flat_activation_rejected(self, relu, gauss_mu):
        op = dd.CompositionOperator(relu, np.array([1.0]))
        with pytest.raises(PreconditionError):
            dd.l1_transitive_approximant(
                op, GridFunction.zero(), GridFunction.constant(1.0), gauss_mu, 0.1, 0.1
            )

    def test_heavy_tail_rejected(self, leaky_rescaled):
        # a measure whose mass sits out to +-128 leaves tail mass past every
        # radius up to 64, so no radius meets a tiny budget
        from uaplab.function_space import uniform_window_measure

        mu = uniform_window_measure(-128.0, 128.0, 1.0)
        op = dd.CompositionOperator(leaky_rescaled, np.array([1.0]))
        with pytest.raises(QuadratureError, match="within radius 64.0"):
            dd.l1_transitive_approximant(
                op, GridFunction.zero(), GridFunction.constant(1.0), mu,
                1e-4, 1e-4,
            )
