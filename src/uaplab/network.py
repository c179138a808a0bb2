"""Feed-forward nets, indicator trees, and the interpolating shallow fitter.

A net whose last activation layer has one input and whose activation has
only affine branches is piecewise affine in that layer's input, with one
kink per unit and interior breakpoint.  Its last two layers are then
evaluated from a sorted knot table (``_kernels.knot_table``, built once per
net) by one binary search per point; earlier layers, power-branch
activations and multi-input layers run as dense matrix products.

Fitting is the converse: the continuous piecewise-linear interpolant of a
one-input target at given knots is exactly a one-hidden-layer net with one
unit kinked at each interior knot (Arora, Basu, Mianjy & Mukherjee, ICLR
2018).  It needs no training grid, ridge or seed, and on a cell of length h
it is within M h^2 / 8 of a target whose second derivative is bounded by M.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels as K
from .errors import (
    DimensionMismatchError,
    FitBudgetError,
    PreconditionError,
    immutable,
)
from .function_space import GridFunction

# activations is imported by the two functions that call it, so that
# free-space-tests does not load it
if TYPE_CHECKING:
    from .activations import ActivationSpec

__all__ = [
    "AffineLayer",
    "FeedForwardNet",
    "TreeFunction",
    "TreeGridFunction",
    "FitResult",
    "identity_layer",
    "sparsity",
    "stack",
    "fit_shallow",
    "net_to_config",
    "net_from_config",
]


class AffineLayer:
    """x -> matrix @ x + bias, optionally followed by the net's activation."""

    __setattr__ = __delattr__ = immutable

    def __init__(self, matrix: np.ndarray, bias: np.ndarray,
                 activation_after: bool = True):
        m = np.asarray(matrix, dtype=np.float64)
        b = np.asarray(bias, dtype=np.float64)
        if m.ndim != 2 or b.ndim != 1 or m.shape[0] != b.shape[0]:
            raise DimensionMismatchError(
                f"layer shapes inconsistent: matrix {m.shape}, bias {b.shape}"
            )
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(b))):
            raise ValueError("layer entries must be finite")
        vars(self).update(matrix=m, bias=b, activation_after=activation_after)

    @property
    def dim_in(self) -> int:
        return self.matrix.shape[1]

    @property
    def dim_out(self) -> int:
        return self.matrix.shape[0]


def identity_layer(dim: int, bias=None, activation_after: bool = True) -> AffineLayer:
    b = np.zeros(dim) if bias is None else np.broadcast_to(
        np.asarray(bias, dtype=np.float64), (dim,)
    ).copy()
    return AffineLayer(np.eye(dim), b, activation_after)


class FeedForwardNet:
    """Alternating affine/activation stack; the final layer stays affine."""

    __setattr__ = __delattr__ = immutable

    def __init__(self, layers: tuple, activation: ActivationSpec):
        layers = tuple(layers)
        if not layers:
            raise ValueError("a net needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.dim_out != b.dim_in:
                raise DimensionMismatchError(
                    f"layer dims do not compose: {a.dim_out} -> {b.dim_in}"
                )
        if layers[-1].activation_after:
            raise ValueError("the final layer must not carry an activation")
        vars(self).update(layers=layers, activation=activation)

    @property
    def dim_in(self) -> int:
        return self.layers[0].dim_in

    @property
    def dim_out(self) -> int:
        return self.layers[-1].dim_out

    @property
    def widths(self) -> tuple:
        return (self.dim_in,) + tuple(l.dim_out for l in self.layers)

    def sample(self, points: np.ndarray) -> np.ndarray:
        x = np.asarray(points, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[1] != self.dim_in:
            raise DimensionMismatchError(
                f"net expects dim_in={self.dim_in}, got {x.shape[1]}"
            )
        table = self._knot_table
        for layer in self.layers if table is None else self.layers[:-2]:
            x = x @ layer.matrix.T
            x += layer.bias
            if layer.activation_after:
                x = self.activation(x)
        return x if table is None else K.knot_eval(*table, x[:, 0])

    @cached_property
    def _knot_table(self):
        """``_kernels.knot_table`` of the last two layers when they form a
        one-input shallow net and every activation branch is affine, else
        None (the layers then run as dense matrix products)."""
        if len(self.layers) < 2:
            return None
        hidden, out = self.layers[-2:]
        edges, kinds, par, _ = self.activation._table
        if (hidden.dim_in != 1 or not hidden.activation_after
                or np.any(kinds != K.KIND_AFFINE)):
            return None
        return K.knot_table(hidden.matrix[:, 0], hidden.bias, out.matrix,
                            out.bias, edges, par)

    def as_gridfunction(self, name: str = "") -> GridFunction:
        return GridFunction(
            self.sample, self.dim_in, self.dim_out, name=name or "net",
        )


def sparsity(layer: AffineLayer) -> tuple[int, int]:
    """Exact nonzero counts (matrix, bias)."""
    return int(np.count_nonzero(layer.matrix)), int(np.count_nonzero(layer.bias))


def stack(net: FeedForwardNet, front_layers: Sequence[AffineLayer]) -> FeedForwardNet:
    """Prepend activation layers: front_layers[0] is applied first.

    The result evaluates to net(sigma(L_k(...sigma(L_1(x))...))) exactly, so
    stacking twice equals stacking the concatenation (later front lists go
    in front: stack(stack(g, A), B) == stack(g, list(B) + list(A))).
    """
    front = [
        AffineLayer(l.matrix, l.bias, True) for l in front_layers
    ]
    return FeedForwardNet(tuple(front) + net.layers, net.activation)


# ---------------------------------------------------------------------------
# shallow interpolating fits


class FitResult(NamedTuple):
    """A fitted shallow net with the data of its a-priori error bound.

    ``sup_residual`` is the largest |net - value| over the knots and
    ``knots`` their count.  ``h`` is the knot spacing the bound is stated
    for (the largest gap unless the caller sets it), ``curvature`` a bound
    M on the target's |f''| and ``bound`` the a-priori error bound built
    from them; both are None where M is unknown.
    """

    net: FeedForwardNet
    sup_residual: float
    knots: int
    h: float
    curvature: Optional[float] = None
    bound: Optional[float] = None

    def outputs(self) -> dict:
        """The fit's entries in result.json."""
        return {"fit_residual": self.sup_residual, "knots": self.knots,
                "h": self.h, "M": self.curvature, "a_priori_bound": self.bound}


KNOT_MERGE = 1e-9  # knots closer than this (relative) are merged


def fit_shallow(knots, values, activation: ActivationSpec,
                width: Optional[int] = None) -> FitResult:
    """The one-hidden-layer net that interpolates ``values`` at ``knots``
    linearly, exactly up to rounding.

    ``activation`` needs one breakpoint e between two affine branches of
    slopes a_l and a_r, a_r != 0.  Hidden unit j computes sigma(x - t_j + e),
    kinked at the interior knot t_j, and its outer weight is the slope jump
    there divided by a_r - a_l; one more unit kinked one cell left of the
    first knot sets the first cell's slope, and the output bias its value.
    The net is the interpolant on [t_1, t_K]; it continues the last cell's
    line past t_K and the first cell's line down to 2 t_1 - t_2.
    Knots are sorted, and any within KNOT_MERGE (relative) of the previous
    one is dropped.  Needing more than ``width`` hidden units (one per knot
    but the last; None sets no cap) raises FitBudgetError with the units
    needed as its residual and the width as its budget.
    """
    edges, kinds, par, _ = activation._table
    a_l, a_r = par[:, 0] if len(edges) == 3 else (0.0, 0.0)
    if np.any(kinds != K.KIND_AFFINE) or a_r == 0.0 or a_r == a_l:
        raise PreconditionError(
            f"interpolating fits need one breakpoint between two affine "
            f"branches of distinct slopes, the upper one nonzero: "
            f"{activation.name} does not have them"
        )
    t = np.asarray(knots, dtype=np.float64)
    order = np.argsort(t, kind="stable")
    t = t[order]
    y = np.asarray(values, dtype=np.float64).reshape(len(t), -1)[order]
    keep = np.concatenate(
        [[True], np.diff(t) > KNOT_MERGE * np.maximum(1.0, np.abs(t[1:]))]
    )
    t, y = t[keep], y[keep]
    if len(t) < 2:
        raise ValueError("an interpolating fit needs two distinct knots")
    units = len(t) - 1
    if width is not None and units > width:
        raise FitBudgetError(
            units, width,
            f"the interpolant on {len(t)} knots needs {units} hidden units; "
            f"the width cap is {width}",
        )
    slopes = np.diff(y, axis=0) / np.diff(t)[:, None]
    jumps = np.diff(slopes, axis=0) / (a_r - a_l)
    # on the first cell every interior unit is on its left branch
    base = (slopes[0] - a_l * np.sum(jumps, axis=0)) / a_r
    kinks = np.concatenate([[2.0 * t[0] - t[1]], t[1:-1]])
    outer = np.concatenate([base[None, :], jumps]).T
    hidden = AffineLayer(np.ones((units, 1)), edges[1] - kinks, True)
    start = activation(t[0] * hidden.matrix[:, 0] + hidden.bias)
    net = FeedForwardNet(
        (hidden, AffineLayer(outer, y[0] - outer @ start, False)), activation
    )
    resid = float(np.max(np.abs(net.sample(t) - y)))
    return FitResult(net, resid, len(t), float(np.max(np.diff(t))))


# ---------------------------------------------------------------------------
# indicator trees


class TreeFunction:
    """Finite sum of amplitudes over open intervals: sum a_j * 1_(b_j, c_j)."""

    __setattr__ = __delattr__ = immutable

    def __init__(self, terms: tuple = ()):
        terms = tuple((float(a), float(b), float(c)) for a, b, c in terms)
        for a, b, c in terms:
            if b > c:
                raise ValueError(f"term ({a}, {b}, {c}) needs b <= c")
        vars(self)["terms"] = terms

    def _arrays(self):
        if not self.terms:
            z = np.empty(0)
            return z, z, z
        arr = np.asarray(self.terms, dtype=np.float64)
        return arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy()

    def sample(self, points: np.ndarray) -> np.ndarray:
        x = np.asarray(points, dtype=np.float64)
        if x.ndim == 2:
            x = x[:, 0]
        amp, lo, hi = self._arrays()
        return K.tree_eval(amp, lo, hi, x)[:, None]

    def as_gridfunction(self, name: str = "tree") -> "TreeGridFunction":
        return TreeGridFunction(self.sample, 1, 1, name=name, tree=self)

    @property
    def breakpoints(self) -> np.ndarray:
        if not self.terms:
            return np.empty(0)
        # np.unique's sort-and-compare, NaNs merged into one, without the
        # numpy.ma import np.unique makes on its first call
        arr = np.asarray(self.terms)
        ends = np.concatenate([arr[:, 1], arr[:, 2]])
        ends.sort()
        keep = (ends[1:] != ends[:-1]) & ~np.isnan(ends[:-1])
        return np.concatenate([ends[:1], ends[1:][keep]])

    def l1_norm(self) -> float:
        """Exact L1 norm: the tree is constant between consecutive
        breakpoints, so each cell adds |value at its midpoint| times its
        length."""
        edges = self.breakpoints
        mids = 0.5 * (edges[:-1] + edges[1:])
        return float(np.sum(np.abs(self.sample(mids)[:, 0]) * np.diff(edges)))


class TreeGridFunction(GridFunction):
    """GridFunction carrying the indicator tree it samples."""

    def __init__(self, fn, dim_in: int = 1, dim_out: int = 1, name: str = "",
                 curvature: Optional[float] = None,
                 tree: TreeFunction = TreeFunction()):
        vars(self).update(fn=fn, dim_in=dim_in, dim_out=dim_out, name=name,
                          curvature=curvature, tree=tree)


# ---------------------------------------------------------------------------
# serialization


def net_to_config(net: FeedForwardNet) -> dict:
    """The net as a config; a built-in activation is written by its name."""
    from .activations import activation_to_config, builtin_names, by_name

    name = net.activation.name
    builtin = name in builtin_names() and by_name(name) == net.activation
    return {
        "layers": [
            {
                "matrix": l.matrix.tolist(),
                "bias": l.bias.tolist(),
                "activation_after": bool(l.activation_after),
            }
            for l in net.layers
        ],
        "activation": name if builtin else activation_to_config(net.activation),
    }


def net_from_config(cfg: dict) -> FeedForwardNet:
    from .activations import activation_from_config

    act = cfg["activation"]
    activation = activation_from_config(act)
    layers = tuple(
        AffineLayer(
            np.asarray(l["matrix"], dtype=np.float64),
            np.asarray(l["bias"], dtype=np.float64),
            bool(l["activation_after"]),
        )
        for l in cfg["layers"]
    )
    return FeedForwardNet(layers, activation)
