"""Iterated composition with a frozen identity+shift activation layer,
x -> sigma•(x + b), and the constructive transitivity certificates built on
the escape of compact cubes.

The certificate algorithm: pick the cube [-k0, k0]^m large enough that the
truncated-series tail is below half the requested tolerances, find the first
iterate N at which the cube's image clears a guard cube, and perturb the
seed g only out there — on the escaped box the perturbation is f pulled back
through the inverse iterate, blended linearly back into g across a margin
shell.  The N-th iterate of the perturbed seed then reproduces f exactly on
the cube, and every remaining series term is dominated by its 2^-k weight,
so both measured distances are certified by construction and re-measured.
The two certificates here and the two assemblies in constrained_approx all
run this escape -> blend (-> shallow fit) sequence as _escape_blend_fit.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import _kernels as K
from .activations import ActivationSpec, classify
from .errors import (
    DimensionMismatchError,
    NoEscapeError,
    PreconditionError,
    QuadratureError,
    UnboundedDensityError,
    VerificationError,
    immutable,
)
from .function_space import (
    GridFunction,
    Measure1D,
    d_ucc,
    lp_norm,
    sup_norm_on_ball,
)
from .network import FitResult, fit_shallow

__all__ = [
    "CompositionOperator",
    "apply",
    "escape_time",
    "construct_transitive_approximant",
    "l1_transitive_approximant",
]

TERMS = 20             # series terms of the truncated d_ucc metric
UCC_POINTS = 301       # grid points per axis for each d_ucc supremum
QUAD_NODES = 20_000    # quadrature nodes of the L1(mu) distances
TAIL_RADII = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)  # the L1 certificate's R
BLEND_MARGIN = 1.0     # width of the shell blending the target back into g
MAX_N = 10_000         # escape steps before NoEscapeError


class CompositionOperator:
    """f -> f o sigma•(x + b), with at least one shift component and every
    one finite and positive (the regime in which injective fixed-point-free
    activations make the iterated cube escape every compact)."""

    __setattr__ = __delattr__ = immutable

    def __init__(self, activation: ActivationSpec, b: np.ndarray):
        b = np.atleast_1d(np.asarray(b, dtype=np.float64))
        if not (b.size and np.all(np.isfinite(b) & (b > 0))):
            raise PreconditionError(
                "operators need a non-empty shift with every entry finite and > 0")
        vars(self).update(activation=activation, b=b)

    @property
    def dim(self) -> int:
        return self.b.size

    def iterate(self, points: np.ndarray, n: int) -> np.ndarray:
        """S^n(points) for points of shape (N, m)."""
        x = np.asarray(points, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        if n == 0:
            return x.copy()
        edges, kinds, par, _ = self.activation._table
        return K.s_iter(edges, kinds, par, x, self.b, int(n))

    def inverse_iterate(self, points: np.ndarray, n: int) -> np.ndarray:
        """S^{-n}(points); requires an (Lp-)transitive activation."""
        y = np.asarray(points, dtype=np.float64)
        if y.ndim == 1:
            y = y[:, None]
        if n == 0:
            return y.copy()
        verdict = classify(self.activation)
        if verdict.kind == "NotTransitive":
            raise PreconditionError(
                f"{self.activation.name} is not invertible for iteration"
            )
        edges, kinds, par, vedges = self.activation._table
        return K.s_inv_iter(edges, kinds, par, vedges, y, self.b, int(n))


def apply(op: CompositionOperator, f: GridFunction, n: int) -> GridFunction:
    """x -> f(S^n(x)); n = 0 returns f itself."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if f.dim_in != op.dim:
        raise DimensionMismatchError(
            f"operator dimension {op.dim} does not match function dim_in {f.dim_in}"
        )
    if n == 0:
        return f
    return GridFunction(
        lambda X, _f=f, _op=op, _n=int(n): _f.sample(_op.iterate(X, _n)),
        f.dim_in,
        f.dim_out,
        name=f"{f.name}∘S^{n}",
    )


def escape_time(op: CompositionOperator, K_radius: float, guard_radius: float,
                max_N: int = MAX_N) -> tuple:
    """(N, lo, hi) for the smallest N with S^N([-K, K]^m) disjoint from the
    guard cube [-guard_radius, guard_radius]^m, and [lo, hi] that box.

    The activation must be injective with no sign-changing fixed point, so
    it is increasing (a decreasing map has a fixed point) and each step
    maps the box [lo, hi] exactly onto the box between the images of its
    two corners: N is exact, not an over-approximation.  Raises
    NoEscapeError after max_N steps.
    """
    if not K_radius > 0:
        raise ValueError("K_radius must be positive")
    if guard_radius < K_radius:
        raise ValueError("guard_radius must be >= K_radius")
    verdict = classify(op.activation)
    if not verdict.injective:
        raise PreconditionError(
            f"{op.activation.name} is not injective (witness near "
            f"{verdict.witness}); escape analysis needs an injective activation"
        )
    if verdict.kind == "NotTransitive":
        raise PreconditionError(
            f"{op.activation.name} has fixed points with sign changes "
            f"(witness {verdict.witness}); the iterated cube need not escape"
        )
    m = op.dim
    lo = np.full(m, -float(K_radius))
    hi = np.full(m, float(K_radius))
    for n in range(1, int(max_N) + 1):
        lo, hi = op.iterate(np.stack([lo, hi]), 1)
        if np.any(lo > guard_radius) or np.any(hi < -guard_radius):
            return n, lo, hi
    raise NoEscapeError(int(max_N))


def _pullback_kinks(op: CompositionOperator, n: int, box_lo: np.ndarray,
                    box_hi: np.ndarray, margin: float) -> list:
    """Input locations where f o S^{-n} changes slope on the escaped box.

    The inverse orbit of y crosses an activation breakpoint at step j exactly
    when y = S^j(sigma(bp)), so those forward-orbit points (plus the box
    edges, where the clamp kinks) are returned; a shallow fit cannot resolve
    the slope jumps there without a unit kinked at each.
    """
    seeds = [float(np.asarray(op.activation(bp)))
             for bp in op.activation.breakpoints]
    kinks = {float(box_lo[0]), float(box_hi[0])}
    lo = float(box_lo[0]) - margin
    hi = float(box_hi[0]) + margin
    for v in seeds:
        y = np.asarray([[v]])
        for _ in range(n):
            if lo <= float(y[0, 0]) <= hi:
                kinks.add(float(y[0, 0]))
            y = op.iterate(y, 1)
        if lo <= float(y[0, 0]) <= hi:
            kinks.add(float(y[0, 0]))
    return sorted(kinks)


def _certificate(n: int, d_seed: float, d_target: float, k0: float,
                 metric: str, op: CompositionOperator, box_lo=(), box_hi=(),
                 fit: Optional[FitResult] = None) -> dict:
    """The result.json outputs of a measured witness that {Phi^N of a
    delta-perturbation of g} meets the epsilon-ball around f."""
    return {
        "N": n,
        "k0": k0,
        "d_seed": d_seed,
        "d_target": d_target,
        "blend_margin": BLEND_MARGIN,
        "metric": metric,
        "escape_lo": [float(v) for v in box_lo],
        "escape_hi": [float(v) for v in box_hi],
        "activation": op.activation.name,
        "b": op.b.tolist(),
        **(fit.outputs() if fit is not None else {"fit_residual": None}),
    }


def _blend(g: GridFunction, f: GridFunction, op: CompositionOperator, n: int,
           box_lo: np.ndarray, box_hi: np.ndarray, margin: float) -> GridFunction:
    """g outside the margin shell of the escaped box, f o S^{-n} on the box,
    linear sup-distance interpolation in between: (1 - w) f(S^{-n}(clamp
    Y)) + w g(Y), w the distance to the box over the margin, clipped to
    [0, 1].

    f is pulled back only at the points with w < 1 and g sampled only at
    those with w > 0: a term with zero weight is not evaluated, so a
    non-finite value there no longer makes the point NaN, and a zero
    result may carry the other sign.  A NaN weight takes both terms, so a
    NaN point stays NaN."""

    def sample(Y: np.ndarray) -> np.ndarray:
        Y = np.asarray(Y, dtype=np.float64)
        dist = np.max(
            np.maximum(box_lo[None, :] - Y, Y - box_hi[None, :]).clip(min=0.0),
            axis=1,
        )
        w = np.clip(dist / margin, 0.0, 1.0)
        # the rows to pull back and to seed, by index (NaN is in both)
        pull, seed = np.flatnonzero(~(w >= 1.0)), np.flatnonzero(~(w <= 0.0))
        out = np.zeros((len(Y), g.dim_out))
        if pull.size:
            clamped = np.clip(np.take(Y, pull, axis=0), box_lo, box_hi)
            out[pull] = f.sample(op.inverse_iterate(clamped, n))
        if seed.size:  # where w is 1, the formula adds g(Y) to a 0
            ws, gy = w[seed, None], g.sample(np.take(Y, seed, axis=0))
            out[seed] = (1.0 - ws) * np.take(out, seed, axis=0) + ws * gy
        return out

    return GridFunction(
        sample, g.dim_in, g.dim_out, name=f"blend[{g.name}->{f.name}]",
    )


def _min_tail_cutoff(tol: float) -> int:
    """Smallest k with 2^-k < tol (tol > 0)."""
    k = 1
    while 2.0**-k >= tol:
        k += 1
    return k


def _ucc_gate(op: CompositionOperator, g: GridFunction, f: GridFunction,
              eps: float, delta: float) -> None:
    """Preconditions of the d_ucc constructions."""
    if eps <= 0 or delta <= 0:
        raise PreconditionError("tolerances must be positive")
    verdict = classify(op.activation)
    if verdict.kind != "Transitive":
        raise PreconditionError(
            f"{op.activation.name} classified {verdict.kind}; the blend "
            f"construction needs a Transitive activation (witness "
            f"{verdict.witness})"
        )
    if f.dim_in != op.dim or g.dim_in != op.dim or f.dim_out != g.dim_out:
        raise DimensionMismatchError("operator/function dimensions do not agree")


def _interpolate(target: GridFunction, fns, radius: float, tol: float,
                 cells_cap: int, extra, activation: ActivationSpec,
                 width: int) -> FitResult:
    """Interpolate ``target`` at core knots on [-radius, radius] and at the
    knots ``extra(core)``.

    The core knots are evenly spaced with 0 among them.  With M, the
    largest curvature bound of ``fns``, known, the spacing h is the widest
    that keeps the interpolation error M h^2 / 8 within tol / 4, and the
    a-priori bound is M h^2 / 8 + 2^-radius (the metric's terms past the
    core cube add less than 2^-radius).  Otherwise the cube gets
    ``cells_cap`` cells (rounded down to even) and there is no bound.
    """
    bounds = [fn.curvature for fn in fns]
    curvature = None if None in bounds else max(bounds)
    if curvature is None:
        cells = cells_cap - cells_cap % 2
    elif curvature == 0.0:
        cells = 2
    else:
        cells = math.ceil(2.0 * radius / math.sqrt(2.0 * tol / curvature))
        cells += cells % 2
    cells = max(cells, 2)
    core = np.linspace(-radius, radius, cells + 1)
    core[cells // 2] = 0.0
    knots = np.concatenate([core, extra(core)])
    result = fit_shallow(knots, target.sample(knots), activation, width)
    h = 2.0 * radius / cells
    bound = None if curvature is None else curvature * h * h / 8.0 + 2.0**-radius
    return result._replace(h=h, curvature=curvature, bound=bound)


def _escape_blend_fit(op: CompositionOperator, g: GridFunction,
                      f: GridFunction, radius: float,
                      width: Optional[int] = None, tol: float = 0.0):
    """Escape [-radius, radius]^m (``escape_time``), blend f into g there,
    optionally fit.

    Returns (N, box_lo, box_hi, blend, fit) where [box_lo, box_hi] is the
    escaped box S^N([-radius, radius]^m), first clear of the guard cube of
    radius + BLEND_MARGIN, and blend is g with f o S^{-N} on that box.  With
    a ``width`` the blend is interpolated by a shallow net of at most that
    many hidden units (fit is the FitResult, else None).  Its knots are the
    core knots on the cube, their images under S^N and the pullback kinks:
    S^{-N} is affine between consecutive box knots, so the fit composed
    with S^N interpolates f on the cube at knots no further apart than the
    core's, and both distances obey the a-priori bound M h^2 / 8 +
    2^-radius, with M the larger curvature bound of g and f and h chosen
    for ``tol``.
    """
    n, box_lo, box_hi = escape_time(op, radius, radius + BLEND_MARGIN)
    blend = _blend(g, f, op, n, box_lo, box_hi, BLEND_MARGIN)
    if width is None:
        return n, box_lo, box_hi, blend, None
    if op.dim != 1:
        raise DimensionMismatchError("shallow fits take one input")
    kinks = _pullback_kinks(op, n, box_lo, box_hi, BLEND_MARGIN)
    # 2 (cells + 1) + kinks knots, one hidden unit fewer
    result = _interpolate(
        blend, (g, f), radius, tol, (width - 1 - len(kinks)) // 2,
        lambda core: np.concatenate([op.iterate(core, n)[:, 0], kinks]),
        op.activation, width,
    )
    return n, box_lo, box_hi, blend, result


def construct_transitive_approximant(
    op: CompositionOperator,
    g: GridFunction,
    f: GridFunction,
    eps: float,
    delta: float,
    width: Optional[int] = None,
    *,
    points: int = UCC_POINTS,
) -> tuple[GridFunction, dict]:
    """Build g_tilde with d(g, g_tilde) < delta and d(f, Phi^N(g_tilde)) < eps.

    Returns (g_tilde, outputs), outputs being the certificate's result.json
    fields: N, the distances, the cube k0, the escaped box and the fit.
    Tolerances above 1 are accepted (the metric is bounded by 1, so such a
    constraint is vacuous).  With a ``width``, g_tilde is refitted as a
    one-hidden-layer net of at most that many hidden units over a region
    covering both the cube and the escaped box, and the measured distances
    are those of the fitted seed.  Each metric supremum is taken on
    ``points`` per axis.
    """
    _ucc_gate(op, g, f, eps, delta)
    d0 = d_ucc(f, g, TERMS, points)
    if d0 == 0.0:
        return g, _certificate(0, 0.0, 0.0, 0.0, "d_ucc", op)

    k0 = float(_min_tail_cutoff(min(eps, delta) / 2.0))
    n, box_lo, box_hi, g_tilde, fitted = _escape_blend_fit(
        op, g, f, k0, width, min(eps, delta))
    if fitted is not None:
        g_tilde = fitted.net.as_gridfunction(name="blend-refit")

    d_seed = d_ucc(g, g_tilde, TERMS, points)
    d_target = d_ucc(f, apply(op, g_tilde, n), TERMS, points)
    if not (d_seed < delta and d_target < eps):
        raise VerificationError(
            "certificate verification failed",
            {"d_seed": d_seed, "delta": delta, "d_target": d_target, "eps": eps},
        )
    return g_tilde, _certificate(n, d_seed, d_target, k0, "d_ucc", op,
                                 box_lo, box_hi, fitted)


def l1_transitive_approximant(
    op: CompositionOperator,
    g: GridFunction,
    f: GridFunction,
    mu: Measure1D,
    eps: float,
    delta: float,
) -> tuple[GridFunction, dict]:
    """Integrable-variant certificate: distances measured in the L1(mu) norm.
    Returns (g_tilde, outputs) as ``construct_transitive_approximant``.

    The perturbed region is pushed past a radius R holding all but a small
    fraction of the measure's mass: R is the first of ``TAIL_RADII`` with
    tail <= min(eps, delta)/(4*(M+1)), M a numeric sup bound on f and g on
    the largest of them, and none raises QuadratureError.  So the seed
    distance is controlled by the tail mass while the N-th iterate
    reproduces f exactly on [-R, R]^m.
    """
    if eps <= 0 or delta <= 0:
        raise PreconditionError("eps and delta must be positive")
    if op.dim != 1:
        raise PreconditionError("the L1 construction is offered for m=1")
    verdict = classify(op.activation)
    if verdict.kind not in ("Transitive", "LpTransitiveOnly"):
        raise PreconditionError(
            f"{op.activation.name} classified {verdict.kind}; need a "
            f"transitive or Lp-transitive activation"
        )
    from .rate_bounds import pushforward_density_norm

    push = pushforward_density_norm(op.activation, float(op.b[0]), mu)
    if not push.well_defined:
        raise UnboundedDensityError(
            "the composition operator is not well-defined on L1(mu): the "
            "pushforward density is unbounded (flat stretch in the activation)",
            push.witness_interval,
        )

    # the three distances share one set of equal-mass nodes
    nodes, weight = mu.nodes(QUAD_NODES)
    diff0 = lp_norm(f - g, nodes[:, None], weight)
    if diff0 == 0.0:
        return g, _certificate(0, 0.0, 0.0, 0.0, "l1", op)

    bound = max(
        sup_norm_on_ball(f, TAIL_RADII[-1], 4001),
        sup_norm_on_ball(g, TAIL_RADII[-1], 4001),
    )
    budget = min(eps, delta) / (4.0 * (bound + 1.0))
    radius = next((r for r in TAIL_RADII if mu.tail_mass(r) <= budget), None)
    if radius is None:
        raise QuadratureError(
            f"measure tail too heavy: needs tail mass <= {budget:.3e} within "
            f"radius {TAIL_RADII[-1]}"
        )

    n, box_lo, box_hi, g_tilde, _ = _escape_blend_fit(op, g, f, radius)
    d_seed = lp_norm(g_tilde - g, nodes[:, None], weight)
    d_target = lp_norm(f - apply(op, g_tilde, n), nodes[:, None], weight)
    if not (d_seed < delta and d_target < eps):
        raise VerificationError(
            "L1 certificate verification failed",
            {"d_seed": d_seed, "delta": delta, "d_target": d_target, "eps": eps},
        )
    return g_tilde, _certificate(n, d_seed, d_target, float(radius), "l1", op,
                                 box_lo, box_hi)
