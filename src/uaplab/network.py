"""Feed-forward nets, indicator trees, and the random-feature ridge fitter.

A net whose last activation layer has one input and whose activation has
only affine branches is piecewise affine in that layer's input, with one
kink per unit and interior breakpoint.  Its last two layers are then
evaluated from a sorted knot table (``_kernels.knot_table``, built once per
net) by one binary search per point; earlier layers, power-branch
activations and multi-input layers run as dense matrix products.

Fitting freezes a sampled hidden layer and solves the outer layer by ridge
least squares, so the result is exactly a one-hidden-layer net while staying
deterministic for a given (seed, grid, ridge).  Hidden weights are sampled
prefix-consistently: the first k features agree across widths for one seed,
making nested-width comparisons meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import _kernels as K
from .activations import ActivationSpec, activation_from_config, activation_to_config
from .errors import DimensionMismatchError, FitSingularError
from .function_space import GridFunction

__all__ = [
    "AffineLayer",
    "FeedForwardNet",
    "TreeFunction",
    "FitConfig",
    "FitResult",
    "identity_layer",
    "net_eval",
    "sparsity",
    "stack",
    "fit_shallow",
    "tree_eval",
    "net_to_config",
    "net_from_config",
]


@dataclass(frozen=True)
class AffineLayer:
    """x -> matrix @ x + bias, optionally followed by the net's activation."""

    matrix: np.ndarray
    bias: np.ndarray
    activation_after: bool = True

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if m.ndim != 2 or b.ndim != 1 or m.shape[0] != b.shape[0]:
            raise DimensionMismatchError(
                f"layer shapes inconsistent: matrix {m.shape}, bias {b.shape}"
            )
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(b))):
            raise ValueError("layer entries must be finite")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "bias", b)

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


@dataclass(frozen=True)
class FeedForwardNet:
    """Alternating affine/activation stack; the final layer stays affine."""

    layers: tuple
    activation: ActivationSpec

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("a net needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.dim_out != b.dim_in:
                raise DimensionMismatchError(
                    f"layer dims do not compose: {a.dim_out} -> {b.dim_in}"
                )
        if layers[-1].activation_after:
            raise ValueError("the final layer must not carry an activation")
        object.__setattr__(self, "layers", layers)

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
            self.sample, self.dim_in, self.dim_out,
            name=name or "net", unbounded=True,
        )


def net_eval(net: FeedForwardNet, x):
    """Evaluate at a single point (vector in, vector out)."""
    pt = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = net.sample(pt[None, :])[0]
    return float(out[0]) if net.dim_out == 1 else out


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
# shallow random-feature fitting


@dataclass(frozen=True)
class FitConfig:
    width: int = 256
    region: float = 1.0          # fit on the cube [-region, region]^m
    grid_points: int = 2001      # training points per axis
    seed: int = 0
    ridge: float = 1e-9


@dataclass(frozen=True)
class FitResult:
    net: FeedForwardNet
    sup_residual: float
    region: float


def _hidden_sample(width: int, dim_in: int, region: float, seed: int):
    # one uniform row per feature so widths share a prefix for a fixed seed
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(width, dim_in + 1))
    scale = 3.0 / region
    w = (2.0 * u[:, :dim_in] - 1.0) * scale
    b = (2.0 * u[:, dim_in] - 1.0) * 3.0
    return w, b


def _train_grid(dim_in: int, region: float, grid_points: int) -> np.ndarray:
    ax = np.linspace(-region, region, grid_points)
    if dim_in == 1:
        return ax[:, None]
    if dim_in == 2:
        g0, g1 = np.meshgrid(ax, ax, indexing="ij")
        return np.stack([g0.ravel(), g1.ravel()], axis=1)
    raise DimensionMismatchError("shallow fitting supports dim_in <= 2")


_SOLVE_BLOCK = 128


def _cholesky_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = rhs for the lower Cholesky factor L by blocked
    forward then back substitution: the off-diagonal blocks are matrix
    products, only the small diagonal blocks go through a dense solve."""
    n = chol.shape[0]
    x = np.array(rhs, dtype=np.float64)
    starts = range(0, n, _SOLVE_BLOCK)
    for s in starts:  # L y = rhs
        e = min(s + _SOLVE_BLOCK, n)
        x[s:e] = np.linalg.solve(chol[s:e, s:e], x[s:e] - chol[s:e, :s] @ x[:s])
    for s in reversed(starts):  # L^T x = y
        e = min(s + _SOLVE_BLOCK, n)
        x[s:e] = np.linalg.solve(chol[s:e, s:e].T, x[s:e] - chol[e:, s:e].T @ x[e:])
    return x


def fit_shallow(target: GridFunction, width: int, activation: ActivationSpec,
                fit_region: float, seed: int = 0, ridge: float = 1e-9,
                grid_points: int = 2001,
                train_points: Optional[np.ndarray] = None,
                extra_kinks: Optional[Sequence[float]] = None,
                sample_weights: Optional[np.ndarray] = None) -> FitResult:
    """One-hidden-layer random-feature ridge fit of ``target``.

    Hidden weights ~ U[-3/region, 3/region], biases ~ U[-3, 3], both from
    ``seed`` with prefix-consistent draws; the outer layer solves the ridge
    normal equations on a uniform training grid over the fit cube (or on
    explicit ``train_points``, e.g. a union of zones when only parts of the
    region matter).  ``extra_kinks`` appends deterministic units (weight
    +3/region, bias placing the activation breakpoint at the given input)
    after the random block, for targets with known kink locations that random
    sampling cannot hit reliably.  ``sample_weights`` multiply per-point
    residuals (weighted least squares); the reported sup residual is over the
    training grid, weighted when weights are given.  Raises FitSingularError
    when ridge=0 leaves the normal equations singular.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if not fit_region > 0:
        raise ValueError("fit_region must be positive")
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    m, n = target.dim_in, target.dim_out
    w_in, b_in = _hidden_sample(width, m, fit_region, seed)
    if extra_kinks is not None and len(extra_kinks):
        if m != 1:
            raise DimensionMismatchError("kink injection supports dim_in == 1")
        scale = 3.0 / fit_region
        kinks = np.asarray(sorted(extra_kinks), dtype=np.float64)
        bp = float(activation.breakpoints[0]) if activation.breakpoints else 0.0
        w_in = np.concatenate([w_in, np.full((len(kinks), 1), scale)])
        b_in = np.concatenate([b_in, bp - scale * kinks])
        width = w_in.shape[0]
    if train_points is not None:
        pts = np.asarray(train_points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
    else:
        pts = _train_grid(m, fit_region, grid_points)
    y = target.sample(pts)
    feats = activation(pts @ w_in.T + b_in)
    phi = np.concatenate([feats, np.ones((pts.shape[0], 1))], axis=1)
    if sample_weights is not None:
        wts = np.asarray(sample_weights, dtype=np.float64).reshape(-1, 1)
        if wts.shape[0] != pts.shape[0]:
            raise DimensionMismatchError("one sample weight per training point")
        phi_w, y_w = phi * wts, y * wts
    else:
        phi_w, y_w = phi, y
    gram = phi_w.T @ phi_w
    if ridge > 0:
        gram = gram + ridge * np.eye(width + 1)
    rhs = phi_w.T @ y_w
    try:
        # Cholesky certifies nonsingularity; its factor then solves the system
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise FitSingularError(
            f"normal equations singular at ridge={ridge}; retry with ridge > 0"
        ) from exc
    beta = _cholesky_solve(chol, rhs)
    w_out = beta[:width].T  # (n, width)
    b_out = beta[width]
    net = FeedForwardNet(
        (
            AffineLayer(w_in, b_in, True),
            AffineLayer(w_out, np.atleast_1d(b_out), False),
        ),
        activation,
    )
    resid = float(np.max(np.linalg.norm(phi_w @ beta - y_w, axis=1)))
    return FitResult(net, resid, float(fit_region))


# ---------------------------------------------------------------------------
# indicator trees


@dataclass(frozen=True)
class TreeFunction:
    """Finite sum of amplitudes over open intervals: sum a_j * 1_(b_j, c_j)."""

    terms: tuple = ()

    def __post_init__(self):
        terms = tuple((float(a), float(b), float(c)) for a, b, c in self.terms)
        for a, b, c in terms:
            if b > c:
                raise ValueError(f"term ({a}, {b}, {c}) needs b <= c")
        object.__setattr__(self, "terms", terms)

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

    def as_gridfunction(self, name: str = "tree") -> GridFunction:
        return GridFunction(self.sample, 1, 1, name=name)

    @property
    def breakpoints(self) -> np.ndarray:
        if not self.terms:
            return np.empty(0)
        arr = np.asarray(self.terms)
        return np.unique(np.concatenate([arr[:, 1], arr[:, 2]]))


def tree_eval(tree: TreeFunction, x: float) -> float:
    """Sum of a_j over the terms whose open interval contains x."""
    amp, lo, hi = tree._arrays()
    return float(K.tree_eval(amp, lo, hi, np.asarray([float(x)]))[0])


# ---------------------------------------------------------------------------
# serialization


def net_to_config(net: FeedForwardNet) -> dict:
    act = net.activation.name
    try:
        from .activations import by_name

        if by_name(act) != net.activation:
            raise ValueError
        act_cfg = act
    except ValueError:
        act_cfg = activation_to_config(net.activation)
    return {
        "layers": [
            {
                "matrix": l.matrix.tolist(),
                "bias": l.bias.tolist(),
                "activation_after": bool(l.activation_after),
            }
            for l in net.layers
        ],
        "activation": act_cfg,
    }


def net_from_config(cfg: dict) -> FeedForwardNet:
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
