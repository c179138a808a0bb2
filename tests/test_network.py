"""Nets, trees, stacking, and the interpolating shallow fitter."""

import numpy as np
import pytest

from uaplab import _kernels as K
from uaplab import activations as act
from uaplab.errors import DimensionMismatchError, FitBudgetError, PreconditionError
from uaplab.function_space import d_ucc
from uaplab.network import (
    AffineLayer,
    FeedForwardNet,
    TreeFunction,
    fit_shallow,
    identity_layer,
    net_from_config,
    net_to_config,
    sparsity,
    stack,
)


def single_layer_identity():
    return FeedForwardNet(
        (AffineLayer(np.eye(1), np.zeros(1), False),), act.by_name("relu")
    )


class TestEval:
    def test_identity_single_layer(self):
        net = single_layer_identity()
        xs = np.linspace(-3, 3, 7)[:, None]
        assert np.array_equal(net.sample(xs), xs)

    def test_relu_hidden_example(self):
        # oracle: max(0, 2 - 1) = 1
        net = FeedForwardNet(
            (
                AffineLayer(np.array([[1.0]]), np.array([-1.0]), True),
                AffineLayer(np.array([[1.0]]), np.array([0.0]), False),
            ),
            act.by_name("relu"),
        )
        assert net.as_gridfunction()(2.0) == pytest.approx(1.0)

    def test_dim_mismatch(self):
        net = single_layer_identity()
        with pytest.raises(DimensionMismatchError):
            net.sample(np.zeros((3, 2)))

    def test_final_layer_must_be_affine(self):
        with pytest.raises(ValueError):
            FeedForwardNet(
                (AffineLayer(np.eye(1), np.zeros(1), True),), act.by_name("relu")
            )


class TestSparsity:
    def test_identity(self):
        assert sparsity(AffineLayer(np.eye(3), np.zeros(3), False)) == (3, 0)

    def test_zero(self):
        assert sparsity(AffineLayer(np.zeros((2, 2)), np.zeros(2), False)) == (0, 0)

    def test_diagonal_with_zero(self):
        layer = AffineLayer(np.diag([1.1, 0.0, 2.0]), np.array([0.0, 1.0, 0.0]), False)
        assert sparsity(layer) == (2, 1)


class TestStack:
    def test_empty_stack_identical(self, leaky_shifted):
        net = FeedForwardNet(
            (AffineLayer(np.array([[2.0]]), np.array([0.5]), False),), leaky_shifted
        )
        stacked = stack(net, [])
        xs = np.linspace(-2, 2, 11)[:, None]
        assert np.array_equal(net.sample(xs), stacked.sample(xs))

    def test_single_front_layer(self, leaky_shifted):
        net = FeedForwardNet(
            (AffineLayer(np.array([[2.0]]), np.array([0.5]), False),), leaky_shifted
        )
        stacked = stack(net, [identity_layer(1, bias=1.0)])
        rng = np.random.default_rng(0)
        for x in rng.uniform(-10, 10, 100):
            want = net.as_gridfunction()(float(leaky_shifted(x + 1.0)))
            assert stacked.as_gridfunction()(x) == pytest.approx(want, abs=1e-12)

    def test_double_stack_equals_concatenation(self, leaky_shifted):
        net = FeedForwardNet(
            (AffineLayer(np.array([[1.0]]), np.array([0.0]), False),), leaky_shifted
        )
        a = identity_layer(1, bias=0.5)
        b = identity_layer(1, bias=2.0)
        twice = stack(stack(net, [a]), [b])
        once = stack(net, [b, a])
        xs = np.random.default_rng(1).uniform(-5, 5, (64, 1))
        assert np.array_equal(twice.sample(xs), once.sample(xs))

    def test_stack_dim_mismatch(self, leaky_shifted):
        net = FeedForwardNet(
            (AffineLayer(np.array([[1.0]]), np.array([0.0]), False),), leaky_shifted
        )
        with pytest.raises(DimensionMismatchError):
            stack(net, [identity_layer(2)])


def three_branch_affine():
    # slopes 0.2, 1 and 0.5, continuous at -1 and 2
    return act.ActivationSpec("three_affine", [
        act.Branch(-np.inf, -1.0, "affine", (0.2, -0.8)),
        act.Branch(-1.0, 2.0, "affine", (1.0, 0.0)),
        act.Branch(2.0, np.inf, "affine", (0.5, 1.0)),
    ])


def dense_hidden_and_output(net, x):
    """(last hidden activations, output) of ``net`` by dense matrix products:
    the reference for the knot table of its last two layers."""
    h = x[:, None]
    for layer in net.layers[:-1]:
        h = net.activation(h @ layer.matrix.T + layer.bias)
    out = net.layers[-1]
    return h, h @ out.matrix.T + out.bias


class TestKnotTable:
    @pytest.mark.parametrize("width", [1, 7, 256, 1024])
    @pytest.mark.parametrize("activation", ["relu", "leaky_shifted_paper",
                                            "three_affine"])
    @pytest.mark.parametrize("dim_out", [1, 2])
    @pytest.mark.parametrize("frozen", [0, 2])
    def test_matches_dense_path(self, width, activation, dim_out, frozen):
        sigma = (three_branch_affine() if activation == "three_affine"
                 else act.by_name(activation))
        rng = np.random.default_rng(width + 10 * dim_out + frozen)
        w = rng.uniform(-3.0, 3.0, width)
        w[0] = 1.5 if dim_out == 1 else -1.5  # width 1: either sign
        w[2::3] = 0.0  # constant units
        net = FeedForwardNet(
            (
                AffineLayer(w[:, None], rng.uniform(-3.0, 3.0, width), True),
                AffineLayer(rng.standard_normal((dim_out, width)),
                            rng.standard_normal(dim_out), False),
            ),
            sigma,
        )
        if frozen:
            net = stack(net, [identity_layer(1, 1.0) for _ in range(frozen)])
        knots = net._knot_table[0]
        assert len(knots) == np.count_nonzero(w) * len(sigma.breakpoints)
        x = np.concatenate([
            knots, np.linspace(-5.0, 5.0, 201), rng.uniform(-1e3, 1e3, 200),
            [-1e3, 1e3],
        ])
        hidden, want = dense_hidden_and_output(net, x)
        got = net.sample(x)
        out = net.layers[-1]
        scale = np.abs(hidden) @ np.abs(out.matrix.T) + np.abs(out.bias)
        assert got.shape == want.shape == (len(x), dim_out)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        assert np.all(np.isnan(net.sample(np.array([np.nan]))))
        assert np.all(np.isnan(dense_hidden_and_output(net, np.array([np.nan]))[1]))

    def test_power_branch_and_two_inputs_stay_dense(self, leaky_shifted):
        cube = act.ActivationSpec(
            "cube", [act.Branch(-np.inf, np.inf, "power", (1.0, 3.0, 0.0, 0.0))]
        )
        one_in = (AffineLayer(np.ones((3, 1)), np.zeros(3), True),
                  AffineLayer(np.ones((1, 3)), np.zeros(1), False))
        two_in = (AffineLayer(np.ones((3, 2)), np.zeros(3), True),) + one_in[1:]
        assert FeedForwardNet(one_in, leaky_shifted)._knot_table is not None
        assert FeedForwardNet(one_in, cube)._knot_table is None
        assert FeedForwardNet(two_in, leaky_shifted)._knot_table is None

    def test_d_ucc_of_fitted_net_makes_no_act_eval_call(self, monkeypatch,
                                                        leaky_shifted, sin_fn):
        knots = np.linspace(-3.0, 3.0, 65)
        net = fit_shallow(knots, np.sin(knots), leaky_shifted).net
        calls = []
        act_eval = K.act_eval
        monkeypatch.setattr(K, "act_eval",
                            lambda *args: calls.append(1) or act_eval(*args))
        assert d_ucc(sin_fn, net.as_gridfunction(), 20) > 0.0
        assert calls == []
        leaky_shifted(np.zeros(3))  # the counter sees the dense path
        assert calls == [1]


FIT_ACTIVATIONS = ("relu", "leaky_shifted_paper")


class TestFitShallow:
    def test_affine_target_easy(self):
        knots = np.array([-1.0, 0.0, 1.0])
        xs = np.linspace(-2.0, 1.0, 1001)  # one cell left of the first knot
        for name in FIT_ACTIVATIONS:
            res = fit_shallow(knots, 2 * knots + 1, act.by_name(name), width=2)
            assert res.net.layers[0].dim_out <= 2
            got = res.net.sample(xs)[:, 0]
            assert np.max(np.abs(got - (2 * xs + 1))) <= 1e-14

    def test_zero_target_zero_net(self):
        knots = np.linspace(-2.0, 2.0, 17)
        for name in FIT_ACTIVATIONS:
            res = fit_shallow(knots, np.zeros_like(knots), act.by_name(name))
            assert res.sup_residual == 0.0
            assert np.all(res.net.layers[1].matrix == 0.0)
            assert np.all(res.net.layers[1].bias == 0.0)

    @pytest.mark.parametrize("activation", FIT_ACTIVATIONS)
    @pytest.mark.parametrize("dim_out", [1, 2])
    def test_net_equals_target_at_every_knot(self, activation, dim_out):
        rng = np.random.default_rng(dim_out)
        knots = np.sort(rng.uniform(-40.0, 40.0, 300))
        values = np.column_stack([np.sin(knots), 3.0 * np.cos(2.0 * knots)])
        values = values[:, :dim_out]
        res = fit_shallow(knots, values, act.by_name(activation))
        got = res.net.sample(knots)
        assert got.shape == values.shape
        assert np.all(np.abs(got - values) <= 1e-12 * np.max(np.abs(values)))
        assert res.sup_residual <= 1e-12 * np.max(np.abs(values))
        assert res.knots == len(knots) and res.net.layers[0].dim_out == len(knots) - 1

    @pytest.mark.parametrize("activation", FIT_ACTIVATIONS)
    @pytest.mark.parametrize("target, curvature", [
        (np.sin, 1.0), (np.cos, 1.0), (lambda x: np.exp(-(x**2)), 2.0),
    ], ids=["sin", "cos", "gauss"])
    def test_error_within_curvature_bound(self, activation, target, curvature):
        knots = np.linspace(-5.0, 5.0, 41)
        res = fit_shallow(knots, target(knots), act.by_name(activation))
        assert res.h == pytest.approx(0.25)
        xs = np.linspace(-5.0, 5.0, 100_001)
        err = np.max(np.abs(res.net.sample(xs)[:, 0] - target(xs)))
        assert 0.0 < err <= curvature * res.h**2 / 8.0

    def test_deterministic_bit_identical(self, leaky_shifted):
        knots = np.linspace(-2.0, 2.0, 33)
        a = fit_shallow(knots, np.cos(knots), leaky_shifted)
        b = fit_shallow(knots, np.cos(knots), leaky_shifted)
        for la, lb in zip(a.net.layers, b.net.layers):
            assert np.array_equal(la.matrix, lb.matrix)
            assert np.array_equal(la.bias, lb.bias)

    def test_kink_injection_places_breakpoints(self):
        # a knot at the target's kink puts a unit's kink exactly there, so
        # a piecewise-linear target is reproduced exactly
        knots = np.array([-2.0, -0.5, 0.7, 1.3, 2.0])
        xs = np.linspace(-2.0, 2.0, 4001)
        for name in FIT_ACTIVATIONS:
            sigma = act.by_name(name)
            res = fit_shallow(knots, np.abs(knots - 0.7), sigma)
            hidden = res.net.layers[0]
            kinks = (sigma.breakpoints[0] - hidden.bias) / hidden.matrix[:, 0]
            assert 0.7 in kinks
            got = res.net.sample(xs)[:, 0]
            assert np.max(np.abs(got - np.abs(xs - 0.7))) <= 1e-14

    def test_width_cap_names_needed_units(self, leaky_shifted):
        knots = np.linspace(-1.0, 1.0, 65)
        assert fit_shallow(knots, knots**2, leaky_shifted, width=64).knots == 65
        with pytest.raises(FitBudgetError) as err:
            fit_shallow(knots, knots**2, leaky_shifted, width=63)
        assert "needs 64 hidden units" in str(err.value)
        assert (err.value.residual, err.value.budget) == (64, 63)

    def test_close_knots_merge(self, leaky_shifted):
        knots = np.array([0.0, 1.0, 1.0 + 1e-13, 2.0, 1.0])
        res = fit_shallow(knots, knots**2, leaky_shifted)
        assert res.knots == 3 and res.sup_residual <= 1e-12

    def test_activation_without_one_kink_rejected(self):
        with pytest.raises(PreconditionError):
            fit_shallow([0.0, 1.0], [0.0, 1.0], three_branch_affine())


class TestTrees:
    def test_empty_tree(self):
        assert TreeFunction(()).as_gridfunction()(0.3) == 0.0

    def test_membership(self):
        t = TreeFunction(((2.0, 0.0, 1.0),))
        assert t.as_gridfunction()(0.5) == 2.0

    def test_open_interval_endpoints(self):
        t = TreeFunction(((2.0, 0.0, 1.0),))
        assert t.as_gridfunction()(1.0) == 0.0
        assert t.as_gridfunction()(0.0) == 0.0

    def test_piecewise_constant_between_breakpoints(self):
        rng = np.random.default_rng(7)
        terms = []
        for _ in range(8):
            b = rng.uniform(-2, 2)
            terms.append((rng.uniform(-1, 1), b, b + rng.uniform(0.1, 2)))
        t = TreeFunction(tuple(terms))
        bps = t.breakpoints
        for lo, hi in zip(bps, bps[1:]):
            xs = np.linspace(lo + 1e-9, hi - 1e-9, 13)
            vals = t.sample(xs[:, None])[:, 0]
            assert np.max(np.abs(vals - vals[0])) == 0.0

    @pytest.mark.parametrize("terms", [
        ((1.0, 0.0, 1.0), (2.0, 0.0, 1.0), (-1.0, 1.0, 1.0)),
        ((1.0, -0.0, 2.0), (1.0, 0.0, 3.0), (1.0, -1.0, -0.0)),
        ((1.0, 0.0, 0.0), (1.0, -0.0, -0.0)),
        ((1.0, -np.inf, 0.0), (1.0, 0.0, np.inf), (1.0, -np.inf, np.inf)),
        ((1.0, np.nan, np.nan), (2.0, 0.0, 1.0), (1.0, np.nan, 2.0)),
        ((1.0, np.nan, np.nan),),
        tuple((1.0, float(b), float(b + d)) for b, d in zip(
            np.random.default_rng(3).integers(-4, 4, 40),
            np.random.default_rng(4).integers(0, 3, 40))),
    ], ids=["shared", "signed-zeros", "only-zeros", "infinite", "nan",
            "only-nan", "random-integers"])
    def test_breakpoints_match_np_unique(self, terms):
        t = TreeFunction(terms)
        arr = np.asarray(t.terms)
        want = np.unique(np.concatenate([arr[:, 1], arr[:, 2]]))
        got = t.breakpoints
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), \
            (got, want)

    def test_invalid_term(self):
        with pytest.raises(ValueError):
            TreeFunction(((1.0, 2.0, 1.0),))

    @staticmethod
    def l1_oracle(terms):
        """Sum over the cells between sorted unique ends of |the amplitudes
        of the terms covering the cell| times the cell's length."""
        ends = sorted({e for _, b, c in terms for e in (b, c)})
        total = 0.0
        for lo, hi in zip(ends, ends[1:]):
            value = sum(a for a, b, c in terms if b <= lo and hi <= c)
            total += abs(value) * (hi - lo)
        return total

    @pytest.mark.parametrize("seed", range(5))
    def test_l1_norm_matches_cell_loop(self, seed):
        rng = np.random.default_rng(seed)
        terms = []
        for _ in range(12):  # overlapping terms of either sign
            b = rng.uniform(-3, 3)
            terms.append((rng.uniform(-2, 2), b, b + rng.uniform(0.0, 3)))
        b = rng.uniform(-3, 3)
        terms.append((rng.uniform(-2, 2), b, b))  # zero length
        got = TreeFunction(tuple(terms)).l1_norm()
        assert got == pytest.approx(self.l1_oracle(terms), rel=1e-12)

    def test_l1_norm_of_empty_and_degenerate_trees(self):
        assert TreeFunction(()).l1_norm() == 0.0
        assert TreeFunction(((5.0, 1.0, 1.0),)).l1_norm() == 0.0
        # cancelling terms leave nothing
        assert TreeFunction(((1.0, 0.0, 2.0), (-1.0, 0.0, 2.0))).l1_norm() == 0.0


class TestSerialization:
    def test_round_trip_builtin_activation(self, leaky_shifted):
        net = FeedForwardNet(
            (
                AffineLayer(np.array([[1.5], [0.5]]), np.array([0.1, -0.2]), True),
                AffineLayer(np.array([[1.0, 2.0]]), np.array([0.0]), False),
            ),
            leaky_shifted,
        )
        back = net_from_config(net_to_config(net))
        xs = np.random.default_rng(0).uniform(-3, 3, (50, 1))
        assert np.array_equal(net.sample(xs), back.sample(xs))

    def test_round_trip_custom_activation(self):
        import math

        custom = act.ActivationSpec(
            "custom",
            [
                act.Branch(-math.inf, 0.0, "affine", (0.3, 0.2)),
                act.Branch(0.0, math.inf, "affine", (1.2, 0.2)),
            ],
        )
        net = FeedForwardNet(
            (
                AffineLayer(np.array([[1.0]]), np.array([0.0]), True),
                AffineLayer(np.array([[1.0]]), np.array([0.0]), False),
            ),
            custom,
        )
        cfg = net_to_config(net)
        assert isinstance(cfg["activation"], dict)
        back = net_from_config(cfg)
        xs = np.linspace(-2, 2, 21)[:, None]
        assert np.array_equal(net.sample(xs), back.sample(xs))
