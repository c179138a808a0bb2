"""Activation classification, construction recipes, and inversion.

Classification checks of the three shipped activations are the anchor
cases; construction outputs are verified against direct formula
substitution and against a pairwise brute-force injectivity oracle.
"""

import math
import sys

import numpy as np
import pytest

from uaplab import _kernels as K
from uaplab import activations as act
from uaplab.depth_dynamics import CompositionOperator
from uaplab.errors import ConfigError, InconclusiveError, PreconditionError


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
    def test_roots_of_cube_minus_x(self):
        # oracle: the gap x^3 - x has its roots in [0.5, 2] and [-2, -0.5] at
        # x = 1 and x = -1, where it is exactly 0
        cube = act.Branch(-math.inf, math.inf, "power", (1.0, 3.0, 0.0, 0.0))
        assert act._bisect_gap(cube, 0.5, 2.0, -0.375, 6.0) == 1.0
        assert act._bisect_gap(cube, -2.0, -0.5, -6.0, 0.375) == -1.0

    def test_stops_at_float_spacing(self):
        # near x = 1e6 adjacent floats are 1.2e-10 apart
        far = act.Branch(-math.inf, math.inf, "affine", (2.0, -1e6 - 0.3))
        root = act._bisect_gap(far, 5e5, 3e6, -5e5 - 0.3, 2e6 - 0.3)
        assert abs(root - (1e6 + 0.3)) <= 2 * math.ulp(1e6)


def square_spec(name, c, a=0.0):
    """x**2 + a*x + c on x >= 0, 0.5*x + c below: continuous at 0."""
    return act.ActivationSpec(name, [
        act.Branch(-math.inf, 0.0, "affine", (0.5, c)),
        act.Branch(0.0, math.inf, "power", (1.0, 2.0, a, c)),
    ])


class TestExactClassification:
    def test_touching_fixed_point(self):
        # oracle: the gap x**2 - x + 0.25 = (x - 0.5)**2 on x >= 0, and
        # 0.25 - 0.5x > 0 below
        v = act.classify(square_spec("sq", 0.25))
        assert v.kind == "LpTransitiveOnly" and v.dominance == "above"
        assert v.fixed_points == (0.5,)

    def test_dip_not_injective(self):
        # oracle: sigma(0) = sigma(0.5) = 1, and sigma' = 2x - 0.5 < 0 on [0, 0.25)
        dip = square_spec("dip", 1.0, a=-0.5)
        assert dip(0.0) == dip(0.5) == 1.0
        v = act.classify(dip)
        assert v.kind == "NotTransitive" and not v.injective
        assert v.witness == pytest.approx(0.25)

    def test_near_touch_inconclusive(self):
        # the gap's minimum (x - 0.5)**2 + 1e-10 is below the noise floor
        with pytest.raises(InconclusiveError):
            act.classify(square_spec("sq+1e-10", 0.25 + 1e-10))
        v = act.classify(square_spec("sq+1e-6", 0.25 + 1e-6))
        assert v.kind == "Transitive" and v.dominance == "above"

    def test_root_beyond_old_sampling_radius(self):
        # oracle: the gap 2e-7*x*|x| - x + 0.25 crosses zero near -5e6, 0.25
        # and 5e6, two of them far beyond any fixed sampling window
        far = act.ActivationSpec(
            "far", [act.Branch(-math.inf, math.inf, "power", (2e-7, 2.0, 0.0, 0.25))]
        )
        v = act.classify(far)
        assert v.kind == "NotTransitive" and v.injective
        assert v.fixed_points == pytest.approx((-5e6, 0.25, 5e6), rel=1e-6)

    @pytest.mark.parametrize("params", [
        (1e-200, 1e-200, -1.0, 0.0),     # s*p underflows to 0
        (1.0, 1.0 + 1e-12, -1.0, 0.0),   # far roots beyond the float range
    ])
    def test_extreme_parameters_stay_finite(self, params):
        # oracle: both gaps change sign at 0, from positive to negative
        sigma = act.ActivationSpec(
            "extreme", [act.Branch(-math.inf, math.inf, "power", params)]
        )
        v = act.classify(sigma)
        assert v.kind == "NotTransitive" and v.witness == 0.0
        assert all(math.isfinite(r) for r in v.fixed_points)

    @pytest.mark.parametrize("p", [0.0, -1.0, float("nan")])
    def test_nonpositive_exponent_rejected(self, p):
        with pytest.raises(ValueError, match="exponent"):
            act.Branch(-math.inf, math.inf, "power", (1.0, p, 0.0, 0.0))

    @pytest.mark.parametrize("kind, params", [
        ("affine", (math.nan, 0.0)),
        ("affine", (math.inf, 0.0)),
        ("affine", (1.0, -math.inf)),
        ("power", (math.nan, 2.0, 0.0, 0.0)),
        ("power", (1.0, math.inf, 0.0, 0.0)),
        ("power", (1.0, 2.0, math.nan, 0.0)),
        ("power", (1.0, 2.0, 0.0, math.inf)),
    ])
    def test_nonfinite_parameter_rejected(self, kind, params):
        with pytest.raises(ValueError, match="must be finite"):
            act.Branch(-math.inf, math.inf, kind, params)

    def test_empty_branch_rejected(self):
        with pytest.raises(ValueError, match="empty branch"):
            act.ActivationSpec("inverted", [
                act.Branch(-math.inf, 1.0, "affine", (1.0, 0.0)),
                act.Branch(1.0, 0.0, "affine", (1.0, 0.0)),
                act.Branch(0.0, math.inf, "affine", (1.0, 0.0)),
            ])

    @pytest.mark.parametrize("branches, roots", [
        # 0.5*x**1.0005 + 1 on x >= 0: the gap's turning point (2/1.0005)**2000
        # overflows, yet sigma(4) ~ 3.0014 < 4, so the gap crosses near 2
        ([act.Branch(-math.inf, 0.0, "affine", (0.5, 1.0)),
          act.Branch(0.0, math.inf, "power", (0.5, 1.0005, 0.0, 1.0))], (2.0007,)),
        # 2*sign(x)*|x|**0.9995 + 1: the gap is 1 at 0 and -1 at x = -1
        ([act.Branch(-math.inf, math.inf, "power", (2.0, 0.9995, 0.0, 1.0))],
         (-1.0,)),
        # 1e-300*x**3 - 1000*x: |x|**3 overflows from |x| ~ 5.6e102, well
        # before the gap turns positive at sqrt(1.001e303)
        ([act.Branch(-math.inf, math.inf, "power", (1e-300, 3.0, -1000.0, 0.0))],
         (-math.sqrt(1.001e303), 0.0, math.sqrt(1.001e303))),
    ])
    def test_crossings_near_the_float_range_edge(self, branches, roots):
        v = act.classify(act.ActivationSpec("edge", branches))
        assert v.kind == "NotTransitive" and v.dominance == "mixed"
        assert v.fixed_points == pytest.approx(roots, rel=1e-4)
        assert v.witness == v.fixed_points[0]

    def test_injective_matches_grid_oracle(self):
        # single power branches with mixed-sign scale and slope, exponents
        # near 1 included, where turning points spread over the whole float
        # range or past it.  sigma' = s*p*|x|**(p-1) + a is monotone in |x|,
        # so sigma is strictly monotone iff sigma' keeps one sign on a
        # geometric grid spanning the floats; every sign change of the gap
        # on that grid must bracket a reported fixed point.
        rng = np.random.default_rng(7)
        with np.errstate(over="ignore"):
            g = np.geomspace(1e-300, sys.float_info.max, 10_000)
        xs = np.concatenate([-g[::-1], [0.0], g])
        for i in range(180):
            s = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            p = [rng.uniform(0.4, 0.7), rng.uniform(0.99, 1.01),
                 rng.uniform(1.5, 3.0)][i % 3]
            a = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            c = rng.uniform(-1.0, 1.0)
            sigma = act.ActivationSpec(
                f"rand{i}", [act.Branch(-math.inf, math.inf, "power", (s, p, a, c))]
            )
            v = act.classify(sigma)
            with np.errstate(over="ignore", invalid="ignore"):
                d = np.sign(K.act_deriv(*sigma._table[:3], g))
                gap = np.sign(np.asarray(sigma(xs)) - xs)
            assert v.injective == bool(np.all(d > 0) or np.all(d < 0)), (s, p, a, c)
            for r in v.fixed_points:
                assert abs(sigma(r) - r) <= 1e-9 * max(1.0, abs(r)), (s, p, a, c)
            for lo, hi in zip(xs[:-1][gap[:-1] * gap[1:] < 0],
                              xs[1:][gap[:-1] * gap[1:] < 0]):
                assert any(lo <= r <= hi for r in v.fixed_points), (s, p, a, c)


def test_bisection_ends_at_adjacent_floats(monkeypatch):
    # the seeded draws of the grid-oracle test, then exponents near 1, whose
    # pieces reach far beyond 1e200: every root of a bisection has gap 0 or
    # a gap of the other sign at an adjacent float, within 64 evaluations
    branch_gap, bisect = act._branch_gap, act._bisect_gap
    count, found = [0], []

    def counting(b, x):
        count[0] += 1
        return branch_gap(b, x)

    def record(b, lo, hi, g_lo, g_hi):
        count[0] = 0
        root = bisect(b, lo, hi, g_lo, g_hi)
        found.append((b, root, count[0]))
        return root

    monkeypatch.setattr(act, "_branch_gap", counting)
    monkeypatch.setattr(act, "_bisect_gap", record)
    rng = np.random.default_rng(7)
    near = np.random.default_rng(2026)
    for i in range(240):
        s = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        p = [rng.uniform(0.4, 0.7), rng.uniform(0.99, 1.01),
             rng.uniform(1.5, 3.0)][i % 3]
        a = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        c = rng.uniform(-1.0, 1.0)
        if i >= 180:
            p = near.uniform(0.99, 1.01)
        act.classify(act.ActivationSpec(
            f"bisect{i}", [act.Branch(-math.inf, math.inf, "power", (s, p, a, c))]))
    # sigma overflows from |x| ~ 1e154, but the gap x*(1e-300*|x| - 6) is
    # finite up to its roots at +-6e300
    act.classify(act.ActivationSpec(
        "bisect-late", [act.Branch(-math.inf, math.inf, "power", (1e-300, 2.0, -5.0, 0.0))]))
    # roots at +-1.5e308, bisected from the piece's end at +-_FMAX
    act.classify(act.ActivationSpec(
        "bisect-edge", [act.Branch(-math.inf, math.inf, "power", (4e-308, 2.0, -5.0, 0.0))]))
    assert len(found) > 200
    assert sum(abs(root) > 5e300 for _, root, _ in found) == 4

    def opposite(u, v):
        return u < 0.0 < v or v < 0.0 < u

    for b, root, evaluations in found:
        assert evaluations <= 64, (b.params, root)
        g = branch_gap(b, root)
        assert g == 0.0 or any(
            opposite(g, branch_gap(b, math.nextafter(root, toward)))
            for toward in (-math.inf, math.inf)), (b.params, root)


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
    """Inversion through the composition operator's inverse iterate."""

    def test_shifted_leaky_values(self, leaky_shifted):
        # oracle: S(x) = sigma(x + 1), with sigma(1) = 1.1*1 + 0.1 = 1.2 and
        # sigma(0) = 0.1, so S^{-1}(1.2) = 0 and S^{-1}(0.1) = -1
        op = CompositionOperator(leaky_shifted, np.array([1.0]))
        back = op.inverse_iterate(np.array([1.2, 0.1]), 1)[:, 0]
        assert back == pytest.approx([0.0, -1.0], abs=1e-12)

    def test_relu_rejected(self, relu):
        op = CompositionOperator(relu, np.array([1.0]))
        with pytest.raises(PreconditionError):
            op.inverse_iterate(np.array([0.5]), 1)

    def test_roundtrip_many_points(self, leaky_shifted, leaky_rescaled):
        rng = np.random.default_rng(2)
        cube = act.ActivationSpec(
            "cube", [act.Branch(-math.inf, math.inf, "power", (1.0, 3.0, 0.0, 0.0))]
        )
        built = act.construct_transitive(cube, 0.5, 1.0)
        for sigma in (leaky_shifted, leaky_rescaled, built):
            op = CompositionOperator(sigma, np.array([1.0]))
            xs = rng.uniform(-100, 100, (1000, 1))
            back = op.inverse_iterate(op.iterate(xs, 1), 1)
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

    def test_builtins_built_once(self):
        assert act.by_name("relu") is act.by_name("relu")

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

    @pytest.mark.parametrize("cfg, violations", [
        ({"name": "relu", "alias": "relu"}, ["alias: unknown key"]),
        ({"branches": [{"kind": "affine", "a": 1.1, "b": 0.1, "p": 2.0}]},
         ["branches.p: unknown key"]),
        ({"branches": [{"kind": "power", "scale": 1.0, "p": 2.0, "c": 0.0}]},
         ["branches.c: unknown key"]),
    ])
    def test_unknown_config_key_rejected(self, cfg, violations):
        with pytest.raises(ConfigError) as info:
            act.activation_from_config(cfg)
        assert info.value.violations == violations

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
