"""Prescribed-final-segment and constrained-final-segment assemblies."""

import re

import numpy as np
import pytest

from uaplab import constrained_approx as ca
from uaplab import depth_dynamics as dd
from uaplab.errors import FitBudgetError, PreconditionError
from uaplab.function_space import GridFunction, sup_norm_on_ball
from uaplab.network import FeedForwardNet, net_from_config, net_to_config

FIT = 512  # fit width


@pytest.fixture
def op(leaky_shifted):
    return dd.CompositionOperator(leaky_shifted, np.array([1.0]))


class TestAssemblePrescribed:
    def test_degenerate_equal_maps(self, op, cos_fn):
        _, rep = ca.assemble_prescribed(cos_fn, cos_fn, 0.2, 0.2, op, FIT)
        assert rep["N_frozen"] == 0
        assert rep["d_prescribed"] < 0.2 and rep["d_target"] < 0.2
        assert rep["d_prescribed"] == pytest.approx(rep["d_target"], abs=1e-9)

    def test_identity_to_cosine(self, op, ident, cos_fn):
        net, rep = ca.assemble_prescribed(ident, cos_fn, 0.1, 0.1, op, FIT)
        assert rep["N_frozen"] >= 5
        assert rep["d_prescribed"] < 0.1 and rep["d_target"] < 0.1
        # frozen layers carry the identity matrix: sparsity m=1, width m=1
        assert all(s == 1 for s in rep["sparsity_per_frozen_layer"])
        for layer in net.layers[: rep["split_index"]]:
            assert np.array_equal(layer.matrix, np.eye(1))
            assert layer.activation_after

    def test_decomposition_identity(self, op, ident, cos_fn):
        net, rep = ca.assemble_prescribed(ident, cos_fn, 0.1, 0.1, op, FIT)
        segment = FeedForwardNet(
            net.layers[rep["split_index"]:], net.activation
        )
        xs = np.random.default_rng(0).uniform(-5, 5, (1000, 1))
        lhs = net.sample(xs)
        rhs = segment.sample(op.iterate(xs, rep["N_frozen"]))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_small_functions_loose_tolerance(self, op):
        # both maps bounded by 0.1: even the metric distance to zero stays
        # below 0.1/1.1 < 0.9, so the loose tolerances are met comfortably
        f_hat = GridFunction.constant(0.05)
        f = GridFunction.from_scalar(lambda x: 0.1 * np.cos(x))
        _, rep = ca.assemble_prescribed(f_hat, f, 0.9, 0.9, op, FIT)
        assert rep["d_prescribed"] < 0.9 and rep["d_target"] < 0.9

    def test_monotone_depth_in_tolerance(self, op, ident, cos_fn):
        _, loose = ca.assemble_prescribed(ident, cos_fn, 0.2, 0.2, op, FIT)
        _, tight = ca.assemble_prescribed(ident, cos_fn, 0.05, 0.05, op, FIT)
        assert tight["N_frozen"] >= loose["N_frozen"]

    def test_width_bound_reported_not_enforced(self, op, ident, cos_fn):
        _, rep = ca.assemble_prescribed(ident, cos_fn, 0.1, 0.1, op, FIT)
        assert rep["width_bound"] == 1 + 1 + 2
        assert not rep["width_bound_satisfied"]  # honest wide segment

    def test_not_transitive_rejected(self, leaky_rescaled, ident, cos_fn):
        op2 = dd.CompositionOperator(leaky_rescaled, np.array([1.0]))
        with pytest.raises(PreconditionError):
            ca.assemble_prescribed(ident, cos_fn, 0.1, 0.1, op2, FIT)


class TestAssembleConstrained:
    def sup_constraint(self, threshold=1.0, radius=1.0):
        return ca.ConstraintFunctional(
            lambda h: sup_norm_on_ball(h, radius, 401), threshold,
            f"sup_ball[{radius}]",
        )

    def test_sup_constraint_satisfied(self, op, sin_fn):
        _, rep = ca.assemble_constrained(
            [self.sup_constraint(1.0)], GridFunction.zero(), sin_fn, 0.2, op, FIT
        )
        c = rep["constraints"][0]
        assert c["value"] < 0.99 * c["threshold"]
        assert rep["d_target"] < 0.2

    def test_empty_constraints_reduce_to_unconstrained(self, op, sin_fn):
        _, rep = ca.assemble_constrained([], GridFunction.zero(), sin_fn, 0.2, op, FIT)
        assert rep["d_target"] < 0.2

    def test_witness_violation_names_functional(self, op, sin_fn):
        bad = ca.ConstraintFunctional(
            lambda h: float(np.linalg.norm(np.atleast_1d(h(0.0)))), 0.5, "at_zero"
        )
        witness = GridFunction.constant(0.7)
        with pytest.raises(PreconditionError) as err:
            ca.assemble_constrained([bad], witness, sin_fn, 0.2, op, FIT)
        assert "at_zero" in str(err.value)

    def test_constraint_values_reproducible_from_serialized_net(self, op, sin_fn):
        con = self.sup_constraint(1.0)
        net, rep = ca.assemble_constrained(
            [con], GridFunction.zero(), sin_fn, 0.2, op, FIT
        )
        back = net_from_config(net_to_config(net))
        segment = FeedForwardNet(
            back.layers[rep["split_index"]:], back.activation
        )
        re_eval = con(segment.as_gridfunction())
        assert re_eval == pytest.approx(rep["constraints"][0]["value"], abs=1e-9)


class TestConstrainedWidth:
    """assemble_constrained fits once, with knots spread over fit.width
    hidden units where the target's curvature is unknown (cos_fn carries no
    bound): enough width succeeds, too little reports what it measured."""

    def assemble(self, op, cos_fn, width):
        con = ca.ConstraintFunctional(
            lambda h: sup_norm_on_ball(h, 1.0, 801), 0.5, "sup_on_ball[1]"
        )
        return ca.assemble_constrained(
            [con], GridFunction.zero(), cos_fn, 0.1, op, width
        )

    def test_first_attempt_succeeds(self, op, cos_fn):
        net, rep = self.assemble(op, cos_fn, width=128)
        assert rep["k0"] == 5.0  # the cube of the first (and only) attempt
        hidden = net.layers[rep["split_index"]].dim_out
        assert hidden <= 128 and hidden == rep["knots"] - 1
        assert rep["M"] is None and rep["a_priori_bound"] is None
        assert rep["d_target"] < 0.1
        assert rep["constraints"][0]["value"] < 0.99 * 0.5

    def test_width_cap_reports_measured_state(self, op, cos_fn):
        with pytest.raises(FitBudgetError) as err:
            self.assemble(op, cos_fn, width=16)
        message = str(err.value)
        assert "eps=0.1" in message
        assert "at width 16, k0=5" in message
        d_target = float(re.search(r"d_target=(\S+) ", message).group(1))
        assert d_target >= 0.1
        assert err.value.residual == pytest.approx(d_target, rel=1e-3)
        assert err.value.budget == 0.1


class TestOutputs:
    def test_outputs_net_round_trips(self, op, ident, cos_fn):
        net, rep = ca.assemble_prescribed(ident, cos_fn, 0.2, 0.2, op, FIT)
        back = net_from_config(rep["net"])
        xs = np.linspace(-3, 3, 101)[:, None]
        assert np.array_equal(back.sample(xs), net.sample(xs))
        # a shallow segment (two layers) behind the frozen ones
        assert rep["split_index"] == rep["N_frozen"] == len(net.layers) - 2
