"""Signed-indicator embedding of the reals into integrable step functions,
and the barycenter of formal convex combinations.

Step functions are indicator trees (``network.TreeFunction``: sums of
amplitudes over open intervals), so the L1 computations here are
closed-form sums over the tree's cells, not quadrature: that is what lets
the isometry property be asserted to 1e-9 over random pairs.  The cells
are open, so a term adds nothing at its interval's ends: eta(2) is 0 at 0
and at 2.  That changes no L1 element.

The barycenter is the plain linear extension sum(alpha_i * f_i): a 1/n
prefactor would break representation independence (splitting an atom in two
would halve the output) and violate the left-inverse property on single
atoms, so it is not applied.
"""

from __future__ import annotations

from functools import reduce
from operator import add

import numpy as np

from .errors import PreconditionError, immutable
from .function_space import GridFunction
from .network import TreeFunction, TreeGridFunction

__all__ = [
    "FormalCombination",
    "eta",
    "rho",
    "l1_distance",
]


def l1_distance(f: TreeGridFunction, g: TreeGridFunction) -> float:
    """Exact L1 distance between two tree-backed functions."""
    for h in (f, g):
        if not isinstance(h, TreeGridFunction):
            raise PreconditionError("exact L1 distance needs tree-backed functions")
    negated = tuple((-a, b, c) for a, b, c in g.tree.terms)
    return TreeFunction(f.tree.terms + negated).l1_norm()


def eta(r: float) -> TreeGridFunction:
    """Signed indicator embedding: sign(r) on the open interval between 0
    and r, so I_(0,r) for r > 0, -I_(r,0) for r < 0 and zero at r = 0.
    An isometry into L1: ||eta(r)-eta(s)||_1 = |r-s|."""
    r = float(r)
    term = (float(np.sign(r)), min(0.0, r), max(0.0, r))
    return TreeFunction((term,)).as_gridfunction(name=f"eta({r:g})")


class FormalCombination:
    """Finite weighted list of point evaluations, prior to barycentering."""

    __setattr__ = __delattr__ = immutable

    def __init__(self, atoms: tuple):  # (weight, GridFunction) pairs
        atoms = tuple((float(w), f) for w, f in atoms)
        for w, f in atoms:
            if not np.isfinite(w):
                raise ValueError("weights must be finite")
            if not isinstance(f, GridFunction):
                raise TypeError("atoms must wrap GridFunctions")
        vars(self)["atoms"] = atoms


def rho(combination: FormalCombination) -> GridFunction:
    """Barycenter: the pointwise weighted sum of the atoms (no prefactor).

    Over tree-backed atoms (and the empty combination) it is the tree of
    every atom's terms scaled by its weight; otherwise the GridFunction sum,
    which raises DimensionMismatchError for atoms of different dimensions.
    """
    atoms = combination.atoms
    if all(isinstance(f, TreeGridFunction) for _, f in atoms):
        terms = tuple((w * a, b, c) for w, f in atoms for a, b, c in f.tree.terms)
        return TreeFunction(terms).as_gridfunction(name="rho")
    return reduce(add, (w * f for w, f in atoms))
