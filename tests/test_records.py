"""The record classes, built without dataclasses: their constructors keep
the fields, positional signatures, defaults and refusals of the frozen
dataclasses they replace, every field is read-only, and equality and
hashing stay where something reads them (the ``typing.NamedTuple``
records compare as tuples; of the plain classes only ``Branch`` is
compared and hashed, by the ``classify`` cache)."""

import inspect
import math

import numpy as np
import pytest

from uaplab import activations as act
from uaplab.cli import ExperimentConfig
from uaplab.constrained_approx import ConstraintFunctional
from uaplab.depth_dynamics import CompositionOperator
from uaplab.errors import DimensionMismatchError, PreconditionError
from uaplab.free_space import FormalCombination
from uaplab.function_space import GridFunction, Measure1D, Weight, WeightedSupResult
from uaplab.network import (
    AffineLayer,
    FeedForwardNet,
    FitResult,
    TreeFunction,
    TreeGridFunction,
)
from uaplab.omega_modification import LimitationSample
from uaplab.rate_bounds import PushforwardReport, SimplexFit

RELU = act.by_name("relu")
COEFFS = np.array([0.5, 0.5])
FN = GridFunction.identity()
LAYER = AffineLayer(np.eye(1), np.zeros(1), False)
NET = FeedForwardNet((LAYER,), RELU)


def _net(*layers):
    return FeedForwardNet(layers, RELU)


def _layer(shape_m, shape_b, value=0.0):
    return AffineLayer(np.full(shape_m, value), np.zeros(shape_b))


# (class, fields in constructor order, defaults, build: a fresh instance
# whose fields are given positionally, hashable: True / False where equal
# builds compare equal and hash equal / are unhashable, None where the
# class compares by identity, refusals: (call, error, message) triples)
RECORDS = [
    (ExperimentConfig, ("command", "params", "seed", "output_path"), {},
     lambda: ExperimentConfig("escape", {"b": 1.0}, 7, "out"), False, []),
    (act.TransitivityVerdict,
     ("kind", "dominance", "witness", "injective", "fixed_points",
      "infinite_fixed_set"),
     {"fixed_points": (), "infinite_fixed_set": False},
     lambda: act.TransitivityVerdict("Transitive", "above", None, True), True, []),
    (WeightedSupResult, ("value", "diverged", "radius_reached"), {},
     lambda: WeightedSupResult(1.5, False, 8.0), True, []),
    (PushforwardReport, ("norm_value", "well_defined", "witness_interval"),
     {"witness_interval": None},
     lambda: PushforwardReport(2.0, True), True, []),
    (SimplexFit,
     ("coefficients", "residual", "iterations", "gap", "cells",
      "lower_bound", "column_set", "dual", "interpolated", "signs"), {},
     lambda: SimplexFit(COEFFS, 0.1, 3, 1e-9, 4, 0.1, COEFFS, COEFFS,
                        COEFFS, COEFFS),
     False, []),
    (FitResult, ("net", "sup_residual", "knots", "h", "curvature", "bound"),
     {"curvature": None, "bound": None},
     lambda: FitResult(NET, 0.0, 2, 0.5), True, []),
    (Measure1D, ("density", "total_mass", "quantile", "cdf", "density_sup"), {},
     lambda: Measure1D(np.exp, 1.0, np.log, np.exp, max), True, []),
    (Weight, ("kind", "param", "fn"), {},
     lambda: Weight("power", 2.0, np.square), True, []),
    (act.Branch, ("lo", "hi", "kind", "params"), {},
     lambda: act.Branch(-math.inf, 0.0, "power", (1.0, 3.0, 0.0, 0.0)), True, [
         (lambda: act.Branch(0.0, 1.0, "cubic", (1.0, 0.0)), ValueError,
          "unknown branch kind"),
         (lambda: act.Branch(0.0, 1.0, "affine", (1.0,)), ValueError,
          "wrong length"),
         (lambda: act.Branch(0.0, 1.0, "power", (1.0, 0.0, 0.0, 0.0)),
          ValueError, "exponent must be positive"),
     ]),
    (TreeFunction, ("terms",), {"terms": ()},
     lambda: TreeFunction(((1, 0, 2),)), None, [
         (lambda: TreeFunction(((1.0, 2.0, 1.0),)), ValueError, "needs b <= c"),
     ]),
    (GridFunction, ("fn", "dim_in", "dim_out", "name", "curvature"),
     {"dim_in": 1, "dim_out": 1, "name": "", "curvature": None},
     lambda: GridFunction(np.sin, 1, 1, "sin", 1.0), None, []),
    (TreeGridFunction,
     ("fn", "dim_in", "dim_out", "name", "curvature", "tree"),
     {"dim_in": 1, "dim_out": 1, "name": "", "curvature": None, "tree": ()},
     lambda: TreeGridFunction(np.sin, 1, 1, "tree", None, TreeFunction()), None, []),
    (AffineLayer, ("matrix", "bias", "activation_after"),
     {"activation_after": True},
     lambda: AffineLayer([[1, 2]], [0]), None, [
         (lambda: _layer((2, 1), (3,)), DimensionMismatchError,
          "layer shapes inconsistent"),
         (lambda: _layer((1, 1), (1,), np.inf), ValueError, "must be finite"),
     ]),
    (FeedForwardNet, ("layers", "activation"), {},
     lambda: FeedForwardNet([LAYER], RELU), None, [
         (lambda: _net(), ValueError, "at least one layer"),
         (lambda: _net(_layer((2, 1), (2,)), _layer((1, 3), (1,))),
          DimensionMismatchError, "do not compose"),
         (lambda: _net(_layer((1, 1), (1,))), ValueError, "final layer"),
     ]),
    (CompositionOperator, ("activation", "b"), {},
     lambda: CompositionOperator(RELU, 1), None, [
         (lambda: CompositionOperator(RELU, [1.0, 0.0]), PreconditionError,
          "finite and > 0"),
         (lambda: CompositionOperator(RELU, []), PreconditionError, "non-empty"),
     ]),
    (ConstraintFunctional, ("eval", "threshold", "label"), {},
     lambda: ConstraintFunctional(abs, 0.5, "abs"), None, [
         (lambda: ConstraintFunctional(abs, 0.0, "abs"), ValueError,
          "must be positive"),
         (lambda: ConstraintFunctional(abs, float("nan"), "abs"), ValueError,
          "must be positive"),
     ]),
    (LimitationSample, ("kind", "label", "value"), {"value": None},
     lambda: LimitationSample("constant", "half", 1), None, [
         (lambda: LimitationSample("linear", "x"), ValueError,
          "'constant' or 'unbounded'"),
         (lambda: LimitationSample("constant", "c"), ValueError, "need a value"),
         (lambda: LimitationSample("unbounded", "u", 1.0), ValueError,
          "take no value"),
     ]),
    (FormalCombination, ("atoms",), {},
     lambda: FormalCombination([(1, FN)]), None, [
         (lambda: FormalCombination([(math.inf, FN)]), ValueError,
          "must be finite"),
         (lambda: FormalCombination([(1.0, np.sin)]), TypeError,
          "wrap GridFunctions"),
     ]),
]

# the fields a constructor converts, as each build above reads them, by
# repr so that 1 and 1.0 or a list and a tuple differ
CONVERTED = {
    TreeFunction: {"terms": ((1.0, 0.0, 2.0),)},
    LimitationSample: {"value": 1.0},
    FormalCombination: {"atoms": ((1.0, FN),)},
    FeedForwardNet: {"layers": (LAYER,)},
}


@pytest.mark.parametrize("cls, fields, defaults, build, hashable, refusals",
                         RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record(cls, fields, defaults, build, hashable, refusals):
    params = inspect.signature(cls).parameters
    assert tuple(params) == fields
    assert {k: getattr(p.default, "terms", p.default)  # a tree by its terms
            for k, p in params.items() if p.default is not p.empty} == defaults
    assert all(p.kind == p.POSITIONAL_OR_KEYWORD for p in params.values())

    rec = build()
    assert type(rec) is cls
    for field, want in CONVERTED.get(cls, {}).items():
        assert repr(getattr(rec, field)) == repr(want)
    if cls is AffineLayer:
        assert rec.matrix.dtype == rec.bias.dtype == np.float64
    if cls is CompositionOperator:
        assert rec.b.shape == (1,) and rec.b.dtype == np.float64

    again = build()
    if hashable is not None:
        assert rec == again and not rec != again
    if hashable:
        assert hash(rec) == hash(again)
    elif hashable is False:
        with pytest.raises(TypeError):
            hash(rec)

    for field in fields:
        value = getattr(rec, field)
        with pytest.raises(AttributeError):
            setattr(rec, field, value)
        with pytest.raises(AttributeError):
            delattr(rec, field)
        assert getattr(rec, field) is value
    with pytest.raises(AttributeError):
        rec.extra = 1

    for call, error, message in refusals:
        with pytest.raises(error, match=message):
            call()


def test_classify_cache_hits_for_an_equal_spec_built_afresh():
    def relu():
        return act.ActivationSpec("relu", [
            act.Branch(-math.inf, 0.0, "affine", (0.0, 0.0)),
            act.Branch(0.0, math.inf, "affine", (1.0, 0.0))])

    first, second = relu(), relu()
    assert first is not second and first == second == RELU
    assert hash(first) == hash(second) == hash(RELU)
    verdict = act.classify(first)
    hits = act.classify.cache_info().hits
    assert act.classify(second) is verdict
    assert act.classify.cache_info().hits == hits + 1
