"""The solver and metric layers a benchmark trace reads are the code the
library runs: each public function, wrapped as a tracer wraps it, is called
by the constructions that use its layer."""

import sys

import numpy as np
import pytest

from uaplab import activations as act
from uaplab import constrained_approx as ca
from uaplab import depth_dynamics as dd
from uaplab import function_space as fs
from uaplab import rate_bounds as rb
from uaplab.network import TreeFunction


def count_calls(monkeypatch, module, name):
    """Wrap module.name and rebind every ``uaplab.*`` attribute that is the
    original to the wrapper, as a tracer installs itself; return the list
    that each call appends to."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "uaplab"
                               or mod_name.startswith("uaplab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, counted)
    return calls


def operator(name):
    return dd.CompositionOperator(act.by_name(name), np.array([1.0]))


TREE = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()


def test_rate_sweep_fits_through_simplex_fit(monkeypatch):
    calls = count_calls(monkeypatch, rb, "simplex_fit")
    rb.rate_sweep(rb.trees_basis_family(), TREE, fs.gaussian_measure(),
                  [4, 8], 0, operator("leaky_rescaled_paper"), quad_nodes=101)
    assert len(calls) == 2


def test_l1_certificate_measures_through_lp_norm(monkeypatch):
    calls = count_calls(monkeypatch, fs, "lp_norm")
    dd.l1_transitive_approximant(operator("leaky_rescaled_paper"),
                                 fs.GridFunction.zero(), TREE,
                                 fs.gaussian_measure(), 0.1, 0.1)
    assert len(calls) == 3  # the seed's distance to f, d_seed and d_target


@pytest.mark.parametrize("construction", ["transitive", "prescribed",
                                          "constrained"])
def test_constructions_escape_through_escape_time(monkeypatch, construction):
    calls = count_calls(monkeypatch, dd, "escape_time")
    op = operator("leaky_shifted_paper")
    ident, sine = fs.GridFunction.identity(), fs.GridFunction.from_scalar(np.sin)
    if construction == "transitive":
        dd.construct_transitive_approximant(op, ident, sine, 0.2, 0.2)
    elif construction == "prescribed":
        ca.assemble_prescribed(ident, sine, 0.2, 0.2, op, 256)
    else:
        ball = ca.ConstraintFunctional(
            lambda h: fs.sup_norm_on_ball(h, 1.0, 401), 1.0, "sup_ball[1]")
        ca.assemble_constrained([ball], fs.GridFunction.zero(), sine, 0.2, op,
                                512)
    assert len(calls) == 1
