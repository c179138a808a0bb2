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

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    FitBudgetError,
    NoControllingWeightError,
    PreconditionError,
    immutable,
)
from .function_space import (
    GridFunction,
    Weight,
    cube_points,
    weighted_sup_norm,
)

__all__ = [
    "LimitationSample",
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
MIN_WIDE_RADIUS = 30.0  # smallest radius of the verification grid
GRID_POINTS = 2001      # grid points per axis of the shell and error checks
KNOT_STEP = 0.1         # spacing of the uniform knots of the fitted core
NORM_POINTS = 801       # grid points per axis of the weighted sup norms
LIMIT_POINTS = 6001     # grid points of the limitation demo's sup distance
MAX_CORE_RADIUS = 4096.0  # largest core radius the shell search tries


def bump_transform(g: GridFunction, a: float, b: float) -> GridFunction:
    """Envelope map with offset level a > 0 and ball parameter b > 0:
    (g(x) e^{-b/(b-||x||^2)} + a) inside ||x||^2 < b, and
    a e^{-|g(x)|(||x||-sqrt(b))} outside (|.| componentwise).

    Both sides tend to the constant a at the boundary, so the result is
    continuous.
    """
    if not (a > 0 and b > 0):
        raise ValueError("a and b must be positive")
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
        return out

    return GridFunction(
        sample, g.dim_in, g.dim_out, name=f"envelope[{g.name}]",
    )


def _shell_sup(f: GridFunction, radius: float) -> float:
    pts = cube_points(2.0 * radius, GRID_POINTS, f.dim_in)
    r = np.linalg.norm(pts, axis=1)
    keep = (r >= radius) & (r <= 2.0 * radius)
    vals = np.linalg.norm(f.sample(pts[keep]), axis=1)
    return float(np.max(vals)) if len(vals) else 0.0


def approximate_vanishing(
    f: GridFunction,
    eps: float,
    width: int,
    *,
    kink_hints: tuple = (),
) -> tuple[GridFunction, dict]:
    """Uniform eps-approximation of a one-input function that decays at
    infinity, with its result.json outputs.

    Finds a core radius R whose outer shell already sits below eps/2,
    interpolates (f - eps/2) e^{+b/(b - x^2)} on [-R, R] with R =
    RHO*sqrt(b) (the exact target blows up at the ball boundary, so the fit
    stops at RHO < 1 and the envelope's vanishing bump factor crushes the
    remaining shell), assembles the envelope with offset eps/2, and
    verifies the sup error end-to-end on a wide grid (WIDE_FACTOR times
    sqrt(b), and at least MIN_WIDE_RADIUS).  The knots are spaced KNOT_STEP
    apart, plus R sin(pi/2 s) for ``width`` points s evenly on [-1, 1],
    which crowd toward the ball's edge where the target is steepest, plus
    ``kink_hints``: input locations where the target is known to change
    slope.  So ``width`` sets the graded knots here, not a cap: the net has
    one hidden unit per knot but the last.
    """
    # imported here, so that limitation-demo loads neither module
    from .activations import by_name
    from .network import fit_shallow

    if eps <= 0:
        raise PreconditionError("eps must be positive")

    radius = 1.0
    while _shell_sup(f, radius) > eps / 2.0:
        radius *= 2.0
        if radius > MAX_CORE_RADIUS:
            raise PreconditionError(
                f"target does not fall below eps/2 = {eps / 2:.3g} on any "
                f"shell up to radius {MAX_CORE_RADIUS}"
            )

    a = eps / 2.0
    b_param = (radius / RHO) ** 2

    knots = np.concatenate([
        np.linspace(-radius, radius, int(round(2.0 * radius / KNOT_STEP)) + 1),
        radius * np.sin(0.5 * np.pi * np.linspace(-1.0, 1.0, width)),
        [t for t in kink_hints if abs(t) < radius],
    ])
    # the envelope multiplies the fitted core by e^{-b/(b - x^2)}
    values = (f.sample(knots) - a) * np.exp(b_param / (b_param - knots**2))[:, None]
    result = fit_shallow(knots, values, by_name(ACTIVATION))
    candidate = bump_transform(
        result.net.as_gridfunction(name="fitted-core"), a, b_param)
    # the shell search looks only at [R, 2R], so the check reaches at least
    # MIN_WIDE_RADIUS, at the grid step of GRID_POINTS over WIDE_FACTOR sqrt(b)
    wide = WIDE_FACTOR * np.sqrt(b_param)
    points = GRID_POINTS
    if wide < MIN_WIDE_RADIUS:
        points = int(np.ceil((GRID_POINTS - 1) * MIN_WIDE_RADIUS / wide)) + 1
        wide = MIN_WIDE_RADIUS
    pts = cube_points(wide, points, f.dim_in)
    err = float(
        np.max(np.linalg.norm(f.sample(pts) - candidate.sample(pts), axis=1))
    )
    if not err < eps:
        raise FitBudgetError(
            err, eps,
            f"vanishing-approximation error {err:.4g} is not below eps={eps} "
            f"with {result.knots} knots",
        )
    return candidate, {
        "sup_error": err,
        "core_radius": radius,
        "ball_param": b_param,
        "offset": a,
        **result.outputs(),
        "wide_radius": float(wide),
    }


def phi_omega(f: GridFunction, omega: Callable) -> GridFunction:
    """Multiply by the weight envelope: x -> (omega(||x||)+1) f(x).  A zero
    f(x) stays zero where the envelope overflows to inf."""

    def sample(X: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(np.asarray(X, dtype=np.float64), axis=1)
        vals = f.sample(X)
        with np.errstate(invalid="ignore"):  # 0 * inf, replaced below
            out = vals * (np.asarray(omega(r)) + 1.0)[:, None]
        return np.where(vals == 0.0, vals, out)

    return GridFunction(sample, f.dim_in, f.dim_out,
                        name=f"weighted[{f.name}]")


def psi_omega(f: GridFunction, omega: Callable) -> GridFunction:
    """Divide by the weight envelope (pointwise inverse of phi_omega)."""

    def sample(X: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(np.asarray(X, dtype=np.float64), axis=1)
        return f.sample(X) / (np.asarray(omega(r)) + 1.0)[:, None]

    return GridFunction(sample, f.dim_in, f.dim_out,
                        name=f"deweighted[{f.name}]")


def approximate_growth(
    f: GridFunction,
    weights: Sequence[Weight],
    eps: float,
    width: int,
) -> tuple[GridFunction, dict]:
    """Weighted-uniform eps-approximation of a function of controlled growth,
    with its result.json outputs.

    Weights with a finite weighted sup norm of f are tried in ascending-norm
    order (ties toward the earliest of ``weights``): the target is divided by
    the weight, the vanishing pipeline runs, and the weight is multiplied
    back.  A finite norm alone is not enough — the divided function must
    also decay — so candidates that fail the tail test fall through to the
    next one.  The reported weighted error is the vanishing pipeline's sup
    error, measured on [-wide_radius, wide_radius]^m.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    flags: dict = {}
    candidates = []
    for idx, w in enumerate(weights):
        label = f"{w.kind}[{w.param:g}]#{idx}"
        res = weighted_sup_norm(f, w, NORM_POINTS)
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
            f_eps, vanish = approximate_vanishing(divided, eps, width,
                                                  kink_hints=hints)
        except (PreconditionError, FitBudgetError) as exc:
            flags[label] += f"; pipeline failed: {exc}"
            continue
        # |f - phi(f_eps)|/(w+1) = |psi(f) - f_eps| at every point, so the
        # weighted error of the result is the vanishing error already measured
        return phi_omega(f_eps, w), {
            "weight_kind": w.kind,
            "weight_param": w.param,
            "weight_index": idx,
            "weighted_error": vanish["sup_error"],
            "vanishing": vanish,
            "flags": flags,
        }
    raise NoControllingWeightError(flags)


# ---------------------------------------------------------------------------
# the negative result: constant-or-unbounded families cannot reach e^{-|x|}


class LimitationSample:
    __setattr__ = __delattr__ = immutable

    def __init__(self, kind: str, label: str, value: Optional[float] = None):
        if kind not in ("constant", "unbounded"):
            raise ValueError("sample kind must be 'constant' or 'unbounded'")
        if kind == "constant":
            if value is None:
                raise ValueError("constant samples need a value")
            value = float(value)
        elif value is not None:
            raise ValueError("unbounded samples take no value")
        vars(self).update(kind=kind, label=label, value=value)


def demonstrate_limitation(
    arch_sampler: Optional[Sequence[LimitationSample]] = None,
    *,
    x_radius: float = 30.0,
) -> dict:
    """Best-constant sup distance to x -> e^{-|x|} on a grid of
    [-x_radius, x_radius], as result.json outputs.

    The constant minimizing max|target - c| over the grid is the midpoint
    of the sampled range, (max + min)/2, and its error is (max - min)/2.
    The target's range is (0, 1], so that is 1/2 with error 1/2 up to the
    grid's e^{-x_radius}: any family producing only constants or unbounded
    functions stays at sup distance >= 1/2 from this bounded non-constant
    target.  Unbounded samples are reported with an infinite error.
    """
    pts = cube_points(x_radius, LIMIT_POINTS)
    target = np.exp(-np.linalg.norm(pts, axis=1))
    hi, lo = float(np.max(target)), float(np.min(target))

    samples = []
    for s in arch_sampler or ():
        if s.kind == "constant":
            error = float(np.max(np.abs(target - s.value)))
        else:
            error = float("inf")
        samples.append({"label": s.label, "kind": s.kind, "error": error})
    return {
        "best_constant": 0.5 * (hi + lo),
        "best_error": 0.5 * (hi - lo),
        "separation": 0.5,  # claimed lower bound on any constant's error
        "sample_errors": samples,  # inf for unbounded samples
    }
