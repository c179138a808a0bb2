"""Activation classification, construction recipes, and inversion.

Classification checks of the three shipped activations are the anchor
cases; construction outputs are verified against direct formula
substitution and against a pairwise brute-force injectivity oracle.
"""

import math

import numpy as np
import pytest

from uaplab import activations as act
from uaplab.errors import PreconditionError


def brute_force_injective(sigma, lo=-50.0, hi=50.0, n=1000):
    """Pairwise oracle: no two grid points share a value."""
    xs = np.linspace(lo, hi, n)
    vals = np.asarray(sigma(xs))
    return len(np.unique(np.round(vals, 12))) == len(xs)


class TestClassifyShippedActivations:
    def test_relu_not_transitive(self, relu):
        v = act.classify(relu)
        assert v.kind == "NotTransitive"
        assert not v.injective
        assert v.witness is not None
        # the identity branch fixes every nonnegative point
        assert v.witness == pytest.approx(1.0)
        assert v.infinite_fixed_set

    def test_shifted_leaky_transitive_above(self, leaky_shifted):
        v = act.classify(leaky_shifted)
        assert v.kind == "Transitive"
        assert v.dominance == "above"
        assert v.injective and v.witness is None
        # oracle: gap is 0.1x+0.1 on x>=0 and -0.9x+0.1 on x<0, both positive
        xs = np.linspace(-100, 100, 10_001)
        assert np.all(np.asarray(leaky_shifted(xs)) > xs)

    def test_rescaled_leaky_lp_only(self, leaky_rescaled):
        v = act.classify(leaky_rescaled)
        assert v.kind == "LpTransitiveOnly"
        assert v.dominance == "above"
        assert v.witness == pytest.approx(0.0)
        assert v.fixed_points == (0.0,)

    def test_stability_under_branch_split(self, leaky_shifted):
        # same function, the upper branch split in two at x=5
        split = act.ActivationSpec(
            "split",
            [
                act.Branch(-math.inf, 0.0, "affine", (0.1, 0.1)),
                act.Branch(0.0, 5.0, "affine", (1.1, 0.1)),
                act.Branch(5.0, math.inf, "affine", (1.1, 0.1)),
            ],
        )
        v0 = act.classify(leaky_shifted)
        v1 = act.classify(split)
        assert (v0.kind, v0.dominance) == (v1.kind, v1.dominance)

    def test_monotone_check_matches_brute_force(self):
        for name in act.builtin_names():
            sigma = act.by_name(name)
            v = act.classify(sigma)
            assert v.injective == brute_force_injective(sigma)

    def test_decreasing_map_has_fixed_point(self):
        # any continuous decreasing map crosses the diagonal
        dec = act.ActivationSpec(
            "dec", [act.Branch(-math.inf, math.inf, "affine", (-1.0, 5.0))]
        )
        v = act.classify(dec)
        assert v.kind == "NotTransitive"
        assert v.witness == pytest.approx(2.5)

    def test_below_dominant_affine(self):
        below = act.ActivationSpec(
            "below", [act.Branch(-math.inf, math.inf, "affine", (1.0, -1.0))]
        )
        v = act.classify(below)
        assert v.kind == "Transitive" and v.dominance == "below"


class TestBisectGap:
    def test_root_to_xtol(self):
        # oracle: the gap x^3 - x has its only root in [0.5, 2] at x = 1
        cube = act.ActivationSpec(
            "cube", [act.Branch(-math.inf, math.inf, "power", (1.0, 3.0, 0.0, 0.0))]
        )
        assert abs(act._bisect_gap(cube, 0.5, 2.0, 1e-13) - 1.0) <= 1e-13
        assert abs(act._bisect_gap(cube, -2.0, -0.5, 1e-10) + 1.0) <= 1e-10

    def test_stops_at_float_spacing(self):
        # near x = 1e6 adjacent floats are 1.2e-10 apart, coarser than xtol
        far = act.ActivationSpec(
            "far", [act.Branch(-math.inf, math.inf, "affine", (2.0, -1e6 - 0.3))]
        )
        root = act._bisect_gap(far, 5e5, 3e6, 1e-13)
        assert abs(root - (1e6 + 0.3)) <= 2 * math.ulp(1e6)


class TestConstructTransitive:
    def cube(self):
        return act.ActivationSpec(
            "cube", [act.Branch(-math.inf, math.inf, "power", (1.0, 3.0, 0.0, 0.0))]
        )

    def test_formula_substitution(self):
        # oracle: sigma(1) = 1^3 + 1 + 1 = 3; sigma(-2) = 0.5*(-2) + 1 = 0
        sigma = act.construct_transitive(self.cube(), 0.5, 1.0)
        assert sigma(1.0) == pytest.approx(3.0, abs=1e-12)
        assert sigma(-2.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_map_rejected(self):
        flat = act.ActivationSpec(
            "flat", [act.Branch(-math.inf, math.inf, "affine", (0.0, 0.0))]
        )
        with pytest.raises(PreconditionError):
            act.construct_transitive(flat, 0.5, 1.0)

    def test_alpha_bounds(self):
        with pytest.raises(PreconditionError):
            act.construct_transitive(self.cube(), 1.5, 1.0)
        with pytest.raises(PreconditionError):
            act.construct_transitive(self.cube(), 0.5, -1.0)

    def test_derivative_condition_rejected(self):
        # base'(0) = 2 here, so alpha2 = 1 is the forbidden value
        base = act.ActivationSpec(
            "lin2", [act.Branch(-math.inf, math.inf, "affine", (2.0, 0.0))]
        )
        with pytest.raises(PreconditionError):
            act.construct_transitive(base, 0.5, 1.0)
        act.construct_transitive(base, 0.5, 1.5)  # nearby value is fine

    def test_output_classifies_transitive(self):
        sigma = act.construct_transitive(self.cube(), 0.3, 0.7)
        v = act.classify(sigma)
        assert v.kind == "Transitive" and v.dominance == "above"

    def test_gap_positive_at_many_points(self):
        sigma = act.construct_transitive(self.cube(), 0.5, 1.0)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-1e3, 1e3, 100_000)
        assert np.all(np.asarray(sigma(xs)) - xs > 0)


class TestConstructLpTransitive:
    def test_formula_substitution(self):
        # oracle: with base = id, sigma(x) = 2x for x >= 0, 0.1x for x < 0
        base = act.ActivationSpec(
            "id", [act.Branch(-math.inf, math.inf, "affine", (1.0, 0.0))]
        )
        sigma = act.construct_lp_transitive(base, 0.1)
        assert sigma(3.0) == pytest.approx(6.0, abs=1e-12)
        assert sigma(-1.0) == pytest.approx(-0.1, abs=1e-12)
        assert sigma(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_alpha_range_enforced(self):
        base = act.ActivationSpec(
            "id", [act.Branch(-math.inf, math.inf, "affine", (1.0, 0.0))]
        )
        for alpha in (0.0, 1.0, 2.0):
            with pytest.raises(PreconditionError):
                act.construct_lp_transitive(base, alpha)

    def test_verdict_and_strict_gap_off_zero(self):
        base = act.ActivationSpec(
            "sqrt3", [act.Branch(-math.inf, math.inf, "power", (2.0, 1.5, 0.0, 0.0))]
        )
        sigma = act.construct_lp_transitive(base, 0.4)
        v = act.classify(sigma)
        assert v.kind in ("LpTransitiveOnly", "Transitive")
        rng = np.random.default_rng(1)
        xs = rng.uniform(-1e3, 1e3, 100_000)
        xs = xs[np.abs(xs) > 1e-9]
        assert np.all(np.asarray(sigma(xs)) > xs)


class TestInvert:
    def test_shifted_leaky_values(self, leaky_shifted):
        # oracle: 1.1*1 + 0.1 = 1.2 and sigma(0) = 0.1
        assert act.invert(leaky_shifted, 1.2) == pytest.approx(1.0, abs=1e-12)
        assert act.invert(leaky_shifted, 0.1) == pytest.approx(0.0, abs=1e-12)

    def test_relu_rejected(self, relu):
        with pytest.raises(PreconditionError):
            act.invert(relu, 0.5)

    def test_roundtrip_many_points(self, leaky_shifted, leaky_rescaled):
        rng = np.random.default_rng(2)
        cube = act.ActivationSpec(
            "cube", [act.Branch(-math.inf, math.inf, "power", (1.0, 3.0, 0.0, 0.0))]
        )
        built = act.construct_transitive(cube, 0.5, 1.0)
        for sigma in (leaky_shifted, leaky_rescaled, built):
            xs = rng.uniform(-100, 100, 1000)
            ys = np.asarray(sigma(xs))
            back = act.invert_array(sigma, ys)
            assert np.max(np.abs(back - xs)) < 1e-10


def power_specs():
    mix = act.ActivationSpec(
        "mix",
        [
            act.Branch(-math.inf, 0.0, "affine", (0.2, 1.0)),
            act.Branch(0.0, math.inf, "power", (1.0, 2.0, 1.0, 1.0)),
        ],
    )
    cube = act.ActivationSpec(
        "cube", [act.Branch(-math.inf, math.inf, "power", (1.0, 3.0, 0.0, 0.0))]
    )
    sqrt3 = act.ActivationSpec(
        "sqrt3", [act.Branch(-math.inf, math.inf, "power", (2.0, 1.5, 0.0, 0.0))]
    )
    return [mix, act.construct_transitive(cube, 0.5, 1.0),
            act.construct_lp_transitive(sqrt3, 0.4)]


class TestSerializationAndRegistry:
    def test_builtin_names_present(self):
        for name in ("relu", "leaky_shifted_paper", "leaky_rescaled_paper"):
            assert name in act.builtin_names()

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            act.by_name("swish")

    def test_round_trip(self, leaky_shifted):
        cfg = act.activation_to_config(leaky_shifted)
        back = act.activation_from_config(cfg)
        assert back == leaky_shifted

    def test_power_round_trip(self):
        # a hand-built mix and the outputs of both construction recipes
        xs = np.linspace(-5, 5, 101)
        for spec in power_specs():
            back = act.activation_from_config(act.activation_to_config(spec))
            assert back == spec
            assert np.allclose(np.asarray(spec(xs)), np.asarray(back(xs)))

    @pytest.mark.parametrize("kind, params", [
        ("table", ((0.0, 1.0), (0.0, 1.0))),
        ("opaque", (lambda x: x + 1.0,)),
    ])
    def test_other_branch_kinds_rejected(self, kind, params):
        with pytest.raises(ValueError, match=kind):
            act.Branch(-math.inf, math.inf, kind, params)

    def test_table_config_rejected(self):
        cfg = {"branches": [{"lo": -math.inf, "hi": math.inf, "kind": "table",
                             "xs": [0.0, 1.0], "ys": [0.0, 1.0]}]}
        with pytest.raises(ValueError, match="table"):
            act.activation_from_config(cfg)

    def test_discontinuous_rejected(self):
        with pytest.raises(ValueError):
            act.ActivationSpec(
                "jump",
                [
                    act.Branch(-math.inf, 0.0, "affine", (1.0, 0.0)),
                    act.Branch(0.0, math.inf, "affine", (1.0, 5.0)),
                ],
            )

    def test_construction_post_verified(self):
        # a base map that is fine except classify would flag it is caught
        base = act.ActivationSpec(
            "id", [act.Branch(-math.inf, math.inf, "affine", (1.0, 0.0))]
        )
        sigma = act.construct_transitive(base, 0.9, 0.3)
        assert act.classify(sigma).kind == "Transitive"
