"""Uniform approximation on all of R^m via weighted spaces.

Pipeline: divide the target by (omega(||x||)+1) to get a function that decays
at infinity, approximate that decaying function uniformly with a
bump-and-decay envelope around a fitted shallow net, and multiply the weight
back.  The division/multiplication maps are mutually inverse pointwise and
the multiplication is an isometry between the plain and weighted sup norms,
so the weighted error of the final result equals the uniform error achieved
in the decaying regime.

The envelope's inside region is taken at ||x||^2 < b (the unique reading
that makes the transform continuous across the boundary) and the outside
decay distance is ||x|| - sqrt(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .activations import by_name
from .errors import (
    FitBudgetError,
    NoControllingWeightError,
    PreconditionError,
)
from .function_space import (
    GridFunction,
    GridSpec,
    WeightFamily,
    weighted_sup_norm,
)
from .network import FitConfig, FitResult, fit_shallow

__all__ = [
    "OmegaTransformParams",
    "VanishingReport",
    "GrowthReport",
    "LimitationSample",
    "LimitationReport",
    "bump_transform",
    "approximate_vanishing",
    "phi_omega",
    "psi_omega",
    "approximate_growth",
    "demonstrate_limitation",
]

ACTIVATION = "relu"     # activation of the fitted shallow nets
RHO = 0.9               # fitted ball radius as a fraction of sqrt(b)
WIDE_FACTOR = 3.0       # verification grid radius in multiples of sqrt(b)
GRID_POINTS = 2001      # grid points per axis of the shell and error checks
KNOT_STEP = 0.1         # spacing of the uniform knots of the fitted core
NORM_POINTS = 801       # grid points per axis of the weighted sup norms
LIMIT_POINTS = 6001     # grid points of the limitation demo's sup distance


@dataclass(frozen=True)
class OmegaTransformParams:
    """Envelope parameters: offset level a > 0 and ball parameter b > 0
    (inside region ||x||^2 < b).  ``omega=None`` means the unit weight."""

    a: float
    b: float
    omega: Optional[Callable] = None

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("a and b must be positive")


def bump_transform(g: GridFunction, params: OmegaTransformParams) -> GridFunction:
    """Envelope map: (g(x) e^{-b/(b-||x||^2)} + a) inside ||x||^2 < b, and
    a e^{-|g(x)|(||x||-sqrt(b))} outside (|.| componentwise).

    Both sides tend to the constant a at the boundary, so the result is
    continuous.  With a non-unit weight in ``params`` the result is scaled by
    (omega(||x||)+1).
    """
    a, b = params.a, params.b
    sqrt_b = float(np.sqrt(b))

    def sample(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        r = np.linalg.norm(X, axis=1)
        r2 = r * r
        vals = g.sample(X)
        inside = r2 < b
        out = np.empty_like(vals)
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            bump = np.zeros_like(r)
            bump[inside] = np.exp(-b / (b - r2[inside]))
            out[inside] = vals[inside] * bump[inside, None] + a
            decay = np.exp(
                -np.abs(vals[~inside]) * (r[~inside] - sqrt_b)[:, None]
            )
            out[~inside] = a * decay
        if params.omega is not None:
            out = out * (np.asarray(params.omega(r)) + 1.0)[:, None]
        return out

    return GridFunction(
        sample, g.dim_in, g.dim_out, name=f"envelope[{g.name}]",
    )


@dataclass(frozen=True)
class VanishingReport:
    sup_error: float
    core_radius: float
    ball_param: float
    offset: float
    fit: FitResult
    wide_radius: float

    def to_config(self) -> dict:
        return {
            "sup_error": self.sup_error,
            "core_radius": self.core_radius,
            "ball_param": self.ball_param,
            "offset": self.offset,
            "fit_residual": self.fit.sup_residual,
            **self.fit.outputs(),
            "wide_radius": self.wide_radius,
        }


def _shell_sup(f: GridFunction, radius: float, grid: GridSpec) -> float:
    pts = grid.cube_points(2.0 * radius)
    r = np.linalg.norm(pts, axis=1)
    keep = (r >= radius) & (r <= 2.0 * radius)
    vals = np.linalg.norm(f.sample(pts[keep]), axis=1)
    return float(np.max(vals)) if len(vals) else 0.0


def approximate_vanishing(
    f: GridFunction,
    eps: float,
    fit: FitConfig,
    *,
    max_core_radius: float = 4096.0,
    kink_hints: tuple = (),
) -> tuple[GridFunction, VanishingReport]:
    """Uniform eps-approximation of a one-input function that decays at
    infinity.

    Finds a core radius R whose outer shell already sits below eps/2,
    interpolates (f - eps/2) e^{+b/(b - x^2)} on [-R, R] with R =
    RHO*sqrt(b) (the exact target blows up at the ball boundary, so the fit
    stops at RHO < 1 and the envelope's vanishing bump factor crushes the
    remaining shell), assembles the envelope with offset eps/2, and
    verifies the sup error end-to-end on a wide grid (WIDE_FACTOR times
    sqrt(b)).  The knots are spaced KNOT_STEP apart, plus R sin(pi/2 s) for
    ``fit.width`` points s evenly on [-1, 1], which crowd toward the ball's
    edge where the target is steepest, plus ``kink_hints``: input
    locations where the target is known to change slope.  So ``fit.width``
    sets the graded knots here, not a cap: the net has one hidden unit per
    knot but the last.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    grid = GridSpec(dim_in=f.dim_in, dim_out=f.dim_out, points_per_axis=GRID_POINTS)

    radius = 1.0
    while _shell_sup(f, radius, grid) > eps / 2.0:
        radius *= 2.0
        if radius > max_core_radius:
            raise PreconditionError(
                f"target does not fall below eps/2 = {eps / 2:.3g} on any "
                f"shell up to radius {max_core_radius}"
            )

    a = eps / 2.0
    b_param = (radius / RHO) ** 2

    knots = np.concatenate([
        np.linspace(-radius, radius, int(round(2.0 * radius / KNOT_STEP)) + 1),
        radius * np.sin(0.5 * np.pi * np.linspace(-1.0, 1.0, fit.width)),
        [t for t in kink_hints if abs(t) < radius],
    ])
    # the envelope multiplies the fitted core by e^{-b/(b - x^2)}
    values = (f.sample(knots) - a) * np.exp(b_param / (b_param - knots**2))[:, None]
    result = fit_shallow(knots, values, by_name(ACTIVATION))
    candidate = bump_transform(
        result.net.as_gridfunction(name="fitted-core"),
        OmegaTransformParams(a=a, b=b_param),
    )
    wide = WIDE_FACTOR * np.sqrt(b_param)
    pts = grid.cube_points(wide)
    err = float(
        np.max(np.linalg.norm(f.sample(pts) - candidate.sample(pts), axis=1))
    )
    if not err < eps:
        raise FitBudgetError(
            err, eps,
            f"vanishing-approximation error {err:.4g} is not below eps={eps} "
            f"with {result.knots} knots",
        )
    return candidate, VanishingReport(err, radius, b_param, a, result, wide)


def phi_omega(f: GridFunction, omega: Callable) -> GridFunction:
    """Multiply by the weight envelope: x -> (omega(||x||)+1) f(x)."""

    def sample(X: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(np.asarray(X, dtype=np.float64), axis=1)
        return f.sample(X) * (np.asarray(omega(r)) + 1.0)[:, None]

    return GridFunction(sample, f.dim_in, f.dim_out,
                        name=f"weighted[{f.name}]", unbounded=True)


def psi_omega(f: GridFunction, omega: Callable) -> GridFunction:
    """Divide by the weight envelope (pointwise inverse of phi_omega)."""

    def sample(X: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(np.asarray(X, dtype=np.float64), axis=1)
        return f.sample(X) / (np.asarray(omega(r)) + 1.0)[:, None]

    return GridFunction(sample, f.dim_in, f.dim_out,
                        name=f"deweighted[{f.name}]", unbounded=f.unbounded)


@dataclass(frozen=True)
class GrowthReport:
    weight_kind: str
    weight_param: float
    weight_index: int
    weighted_error: float
    measure_radius: float
    vanishing: VanishingReport
    flags: dict

    def to_config(self) -> dict:
        return {
            "weight_kind": self.weight_kind,
            "weight_param": self.weight_param,
            "weight_index": self.weight_index,
            "weighted_error": self.weighted_error,
            "measure_radius": self.measure_radius,
            "vanishing": self.vanishing.to_config(),
            "flags": dict(self.flags),
        }


def approximate_growth(
    f: GridFunction,
    family: WeightFamily,
    eps: float,
    fit: FitConfig,
    *,
    measure_radius: float = 30.0,
) -> tuple[GridFunction, GrowthReport]:
    """Weighted-uniform eps-approximation of a function of controlled growth.

    Weights with a finite weighted sup norm of f are tried in ascending-norm
    order (ties toward the earliest family member): the target is divided by
    the weight, the vanishing pipeline runs, and the weight is multiplied
    back.  A finite norm alone is not enough — the divided function must
    also decay — so candidates that fail the tail test fall through to the
    next one.  The reported error is the weighted sup distance measured on
    [-measure_radius, measure_radius]^m.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    grid = GridSpec(dim_in=f.dim_in, dim_out=f.dim_out, points_per_axis=GRID_POINTS)
    norm_grid = GridSpec(dim_in=f.dim_in, dim_out=f.dim_out,
                         points_per_axis=NORM_POINTS, radius=1.0)

    flags: dict = {}
    candidates = []
    for idx, w in enumerate(family.weights):
        label = f"{w.kind}[{w.param:g}]#{idx}"
        res = weighted_sup_norm(f, w, norm_grid)
        if res.diverged:
            flags[label] = "diverged"
        else:
            flags[label] = f"norm {res.value:.6g}"
            candidates.append((res.value, idx, w, label))
    if not candidates:
        raise NoControllingWeightError(flags)
    candidates.sort(key=lambda t: (t[0], t[1]))

    for _, idx, w, label in candidates:
        divided = psi_omega(f, w)
        # the weight envelope itself introduces slope changes: at the origin
        # (the input norm kinks there) and where a max-form weight switches
        hints = (0.0,) if w.kind in ("unit", "power", "exp_decay") else (-1.0, 0.0, 1.0)
        try:
            f_eps, vanish = approximate_vanishing(divided, eps, fit, kink_hints=hints)
        except (PreconditionError, FitBudgetError) as exc:
            flags[label] += f"; pipeline failed: {exc}"
            continue
        result = phi_omega(f_eps, w)
        pts = grid.cube_points(measure_radius)
        r = np.linalg.norm(pts, axis=1)
        weighted_err = float(
            np.max(
                np.linalg.norm(f.sample(pts) - result.sample(pts), axis=1)
                / (np.asarray(w(r)) + 1.0)
            )
        )
        if weighted_err < eps:
            return result, GrowthReport(
                w.kind, w.param, idx, weighted_err, measure_radius, vanish, flags
            )
        flags[label] += f"; weighted error {weighted_err:.4g} >= eps"
    raise NoControllingWeightError(flags)


# ---------------------------------------------------------------------------
# the negative result: constant-or-unbounded families cannot reach e^{-|x|}


@dataclass(frozen=True)
class LimitationSample:
    kind: str  # "constant" | "unbounded"
    label: str
    value: Optional[float] = None
    fn: Optional[GridFunction] = None

    def __post_init__(self):
        if self.kind not in ("constant", "unbounded"):
            raise ValueError("sample kind must be 'constant' or 'unbounded'")
        if self.kind == "constant" and self.value is None:
            raise ValueError("constant samples need a value")


@dataclass(frozen=True)
class LimitationReport:
    best_constant: float
    best_error: float
    separation: float  # claimed lower bound on any constant's error
    sample_errors: tuple  # (label, kind, error) with inf for unbounded

    def to_config(self) -> dict:
        return {
            "best_constant": self.best_constant,
            "best_error": self.best_error,
            "separation": self.separation,
            "sample_errors": [
                {"label": l, "kind": k, "error": e}
                for (l, k, e) in self.sample_errors
            ],
        }


def demonstrate_limitation(
    arch_sampler: Optional[Sequence[LimitationSample]] = None,
    *,
    x_radius: float = 30.0,
) -> LimitationReport:
    """Best-constant sup distance to x -> e^{-|x|} on a grid of
    [-x_radius, x_radius].

    The constant minimizing max|target - c| over the grid is the midpoint
    of the sampled range, (max + min)/2, and its error is (max - min)/2.
    The target's range is (0, 1], so that is 1/2 with error 1/2 up to the
    grid's e^{-x_radius}: any family producing only constants or unbounded
    functions stays at sup distance >= 1/2 from this bounded non-constant
    target.  Unbounded samples are reported with an infinite error.
    """
    pts = GridSpec(dim_in=1, dim_out=1, points_per_axis=LIMIT_POINTS).cube_points(x_radius)
    target = np.exp(-np.linalg.norm(pts, axis=1))
    hi, lo = float(np.max(target)), float(np.min(target))

    samples = []
    for s in arch_sampler or ():
        if s.kind == "constant":
            error = float(np.max(np.abs(target - float(s.value))))
        else:
            error = float("inf")
        samples.append((s.label, s.kind, error))
    return LimitationReport(
        best_constant=0.5 * (hi + lo),
        best_error=0.5 * (hi - lo),
        separation=0.5,
        sample_errors=tuple(samples),
    )
