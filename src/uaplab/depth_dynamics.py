"""Iterated composition with a frozen activation layer, and the constructive
transitivity certificates built on the escape of compact cubes.

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
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _kernels as K
from .activations import ActivationSpec, classify
from .errors import (
    DimensionMismatchError,
    NoEscapeError,
    PreconditionError,
    QuadratureError,
    VerificationError,
)
from .function_space import (
    GridFunction,
    GridSpec,
    Measure1D,
    d_ucc,
    lp_norm,
    sup_norm_on_ball,
)
from .network import FitConfig, FitResult, fit_shallow

__all__ = [
    "CompositionOperator",
    "TransitivityCertificate",
    "apply",
    "escape_time",
    "construct_transitive_approximant",
    "l1_transitive_approximant",
]

TERMS = 20             # series terms of the truncated d_ucc metric
UCC_POINTS = 301       # grid points per axis for each d_ucc supremum
QUAD_NODES = 20_000    # quadrature nodes of the L1(mu) distances
BLEND_MARGIN = 1.0     # width of the shell blending the target back into g
MAX_N = 10_000         # escape steps before NoEscapeError


@dataclass(frozen=True)
class CompositionOperator:
    """f -> f o sigma•(A x + b); A=None means the identity matrix.

    With A=None every shift component must be strictly positive (that is the
    regime in which injective fixed-point-free activations make the iterated
    cube escape every compact).
    """

    activation: ActivationSpec
    b: np.ndarray
    A: Optional[np.ndarray] = None

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.b, dtype=np.float64))
        object.__setattr__(self, "b", b)
        if self.A is None:
            if not np.all(b > 0):
                raise PreconditionError(
                    "identity-matrix operators need strictly positive shifts"
                )
        else:
            A = np.asarray(self.A, dtype=np.float64)
            if A.shape != (b.size, b.size):
                raise DimensionMismatchError(
                    f"A must be {b.size}x{b.size}, got {A.shape}"
                )
            object.__setattr__(self, "A", A)

    @property
    def dim(self) -> int:
        return self.b.size

    def step(self, points: np.ndarray) -> np.ndarray:
        return self.iterate(points, 1)

    def iterate(self, points: np.ndarray, n: int) -> np.ndarray:
        """S^n(points) for points of shape (N, m)."""
        x = np.asarray(points, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        if n == 0:
            return x.copy()
        if self.A is None:
            edges, kinds, par, _ = self.activation._table
            return K.s_iter(edges, kinds, par, x, self.b, int(n))
        out = x.copy()
        for _ in range(int(n)):
            out = self.activation(out @ self.A.T + self.b)
        return out

    def inverse_iterate(self, points: np.ndarray, n: int) -> np.ndarray:
        """S^{-n}(points); requires A=None and an (Lp-)transitive activation."""
        if self.A is not None:
            raise PreconditionError("inverse iteration is offered for A=identity")
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
        unbounded=f.unbounded,
    )


def _box_step(op: CompositionOperator, lo: np.ndarray, hi: np.ndarray):
    """Propagate the box [lo, hi] through one step (coordinatewise monotone)."""
    if op.A is None:
        pair = op.iterate(np.stack([lo, hi]), 1)
        return pair[0], pair[1]
    a_pos = np.maximum(op.A, 0.0)
    a_neg = np.minimum(op.A, 0.0)
    z_lo = a_pos @ lo + a_neg @ hi + op.b
    z_hi = a_pos @ hi + a_neg @ lo + op.b
    return (
        np.asarray(op.activation(z_lo), dtype=np.float64),
        np.asarray(op.activation(z_hi), dtype=np.float64),
    )


def _escape(op: CompositionOperator, K_radius: float, guard: float,
            max_N: int):
    """The escape loop: (N, lo, hi) with [lo, hi] the box S^N([-K, K]^m),
    the first one disjoint from the guard cube."""
    if not K_radius > 0:
        raise ValueError("K_radius must be positive")
    if guard < K_radius:
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
    if op.A is not None:
        if np.linalg.matrix_rank(op.A) < op.dim:
            raise PreconditionError("A must be of full rank")
    m = op.dim
    lo = np.full(m, -float(K_radius))
    hi = np.full(m, float(K_radius))
    for n in range(1, int(max_N) + 1):
        lo, hi = _box_step(op, lo, hi)
        if np.any(lo > guard) or np.any(hi < -guard):
            return n, lo, hi
    raise NoEscapeError(int(max_N))


def escape_time(op: CompositionOperator, K_radius: float,
                guard_radius: Optional[float] = None,
                max_N: int = MAX_N) -> int:
    """Smallest N with S^N([-K, K]^m) disjoint from the guard cube.

    For A=identity and a monotone activation the cube image is exactly the
    box spanned by the two corner iterates; for general full-rank A the box
    is propagated by interval arithmetic, a sound over-approximation that may
    overestimate N.  Raises NoEscapeError after max_N steps.
    """
    guard = K_radius if guard_radius is None else float(guard_radius)
    return _escape(op, K_radius, guard, max_N)[0]


def _pullback_kinks(op: CompositionOperator, n: int, box_lo: np.ndarray,
                    box_hi: np.ndarray, margin: float) -> list:
    """Input locations where f o S^{-n} changes slope on the escaped box.

    The inverse orbit of y crosses an activation breakpoint at step j exactly
    when y = S^j(sigma(bp)), so those forward-orbit points (plus the box
    edges, where the clamp kinks) are returned; a shallow fit cannot resolve
    the slope jumps there without a unit kinked at each.
    """
    if op.dim != 1:
        return []
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


@dataclass(frozen=True)
class TransitivityCertificate:
    """Measured witness that {Phi^N of a delta-perturbation of g} meets the
    epsilon-ball around f."""

    N: int
    g_tilde: GridFunction
    d_seed: float
    d_target: float
    k0: float
    blend_margin: float
    metric: str
    escape_lo: tuple
    escape_hi: tuple
    activation_name: str
    b: tuple
    fit: Optional[FitResult] = None

    @property
    def fit_residual(self) -> Optional[float]:
        return None if self.fit is None else self.fit.sup_residual

    def to_config(self) -> dict:
        return {
            "N": self.N,
            "k0": self.k0,
            "d_seed": self.d_seed,
            "d_target": self.d_target,
            "blend_margin": self.blend_margin,
            "metric": self.metric,
            "escape_lo": list(self.escape_lo),
            "escape_hi": list(self.escape_hi),
            "activation": self.activation_name,
            "b": list(self.b),
            "fit_residual": self.fit_residual,
            **(self.fit.outputs() if self.fit is not None else {}),
        }


def _blend(g: GridFunction, f: GridFunction, op: CompositionOperator, n: int,
           box_lo: np.ndarray, box_hi: np.ndarray, margin: float) -> GridFunction:
    """g outside the margin shell of the escaped box, f o S^{-n} on the box,
    linear sup-distance interpolation in between."""

    def sample(Y: np.ndarray) -> np.ndarray:
        Y = np.asarray(Y, dtype=np.float64)
        clamped = np.clip(Y, box_lo[None, :], box_hi[None, :])
        pulled = f.sample(op.inverse_iterate(clamped, n))
        dist = np.max(
            np.maximum(box_lo[None, :] - Y, Y - box_hi[None, :]).clip(min=0.0),
            axis=1,
        )
        w = np.clip(dist / margin, 0.0, 1.0)[:, None]
        return (1.0 - w) * pulled + w * g.sample(Y)

    return GridFunction(
        sample, g.dim_in, g.dim_out, name=f"blend[{g.name}->{f.name}]",
        unbounded=g.unbounded or f.unbounded,
    )


def _min_tail_cutoff(tol: float) -> int:
    """Smallest k with 2^-k < tol (tol > 0)."""
    k = 1
    while 2.0**-k >= tol:
        k += 1
    return k


def _ucc_gate(op: CompositionOperator, g: GridFunction, f: GridFunction,
              eps: float, delta: float,
              grid: Optional[GridSpec] = None) -> GridSpec:
    """Preconditions of the d_ucc constructions; returns ``grid``, or the
    default grid when it is None."""
    if eps <= 0 or delta <= 0:
        raise PreconditionError("tolerances must be positive")
    if op.A is not None:
        raise PreconditionError("the blend construction needs A=identity")
    verdict = classify(op.activation)
    if verdict.kind != "Transitive":
        raise PreconditionError(
            f"{op.activation.name} classified {verdict.kind}; the blend "
            f"construction needs a Transitive activation (witness "
            f"{verdict.witness})"
        )
    if f.dim_in != op.dim or g.dim_in != op.dim or f.dim_out != g.dim_out:
        raise DimensionMismatchError("operator/function dimensions do not agree")
    if grid is None:
        grid = GridSpec(dim_in=f.dim_in, dim_out=f.dim_out,
                        points_per_axis=UCC_POINTS)
    return grid


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
    return replace(result, h=h, curvature=curvature, bound=bound)


def _escape_blend_fit(op: CompositionOperator, g: GridFunction,
                      f: GridFunction, radius: float,
                      fit: Optional[FitConfig] = None, tol: float = 0.0):
    """Escape [-radius, radius]^m, blend f into g there, optionally fit.

    Returns (N, box_lo, box_hi, blend, fit) where [box_lo, box_hi] is the
    escaped box S^N([-radius, radius]^m), first clear of the guard cube of
    radius + BLEND_MARGIN, and blend is g with f o S^{-N} on that box.  With
    a fit config the blend is interpolated by a shallow net (fit is the
    FitResult, else None).  Its knots are the core knots on the cube, their
    images under S^N and the pullback kinks: S^{-N} is affine between
    consecutive box knots, so the fit composed with S^N interpolates f on
    the cube at knots no further apart than the core's, and both distances
    obey the a-priori bound M h^2 / 8 + 2^-radius, with M the larger
    curvature bound of g and f and h chosen for ``tol``.
    """
    n, box_lo, box_hi = _escape(op, radius, radius + BLEND_MARGIN, MAX_N)
    blend = _blend(g, f, op, n, box_lo, box_hi, BLEND_MARGIN)
    if fit is None:
        return n, box_lo, box_hi, blend, None
    if op.dim != 1:
        raise DimensionMismatchError("shallow fits take one input")
    kinks = _pullback_kinks(op, n, box_lo, box_hi, BLEND_MARGIN)
    # 2 (cells + 1) + kinks knots, one hidden unit fewer
    result = _interpolate(
        blend, (g, f), radius, tol, (fit.width - 1 - len(kinks)) // 2,
        lambda core: np.concatenate([op.iterate(core, n)[:, 0], kinks]),
        op.activation, fit.width,
    )
    return n, box_lo, box_hi, blend, result


def construct_transitive_approximant(
    op: CompositionOperator,
    g: GridFunction,
    f: GridFunction,
    eps: float,
    delta: float,
    fitter: Optional[FitConfig] = None,
    *,
    grid: Optional[GridSpec] = None,
) -> TransitivityCertificate:
    """Build g_tilde with d(g, g_tilde) < delta and d(f, Phi^N(g_tilde)) < eps.

    Tolerances above 1 are accepted (the metric is bounded by 1, so such a
    constraint is vacuous).  With a fitter config, g_tilde is refitted as a
    one-hidden-layer net over a region covering both the cube and the escaped
    box, and the measured distances are those of the fitted seed.
    """
    grid = _ucc_gate(op, g, f, eps, delta, grid)
    d0 = d_ucc(f, g, TERMS, grid)
    if d0 == 0.0:
        return TransitivityCertificate(
            0, g, 0.0, 0.0, 0.0, BLEND_MARGIN, "d_ucc",
            (), (), op.activation.name, tuple(op.b),
        )

    k0 = float(_min_tail_cutoff(min(eps, delta) / 2.0))
    n, box_lo, box_hi, g_tilde, fitted = _escape_blend_fit(
        op, g, f, k0, fitter, min(eps, delta))
    if fitted is not None:
        g_tilde = fitted.net.as_gridfunction(name="blend-refit")

    d_seed = d_ucc(g, g_tilde, TERMS, grid)
    d_target = d_ucc(f, apply(op, g_tilde, n), TERMS, grid)
    if not (d_seed < delta and d_target < eps):
        raise VerificationError(
            "certificate verification failed",
            {"d_seed": d_seed, "delta": delta, "d_target": d_target, "eps": eps},
        )
    return TransitivityCertificate(
        n, g_tilde, d_seed, d_target, k0, BLEND_MARGIN, "d_ucc",
        tuple(box_lo), tuple(box_hi), op.activation.name, tuple(op.b),
        fitted,
    )


def l1_transitive_approximant(
    op: CompositionOperator,
    g: GridFunction,
    f: GridFunction,
    mu: Measure1D,
    eps: float,
    delta: float,
    *,
    max_radius: float = 64.0,
) -> TransitivityCertificate:
    """Integrable-variant certificate: distances measured in the L1(mu) norm.

    The perturbed region is pushed past a radius R holding all but a small
    fraction of the measure's mass (tail <= min(eps, delta)/(4*(M+1)) with M
    a numeric sup bound on f and g), so the seed distance is controlled by
    the tail mass while the N-th iterate reproduces f exactly on [-R, R]^m.
    """
    if eps <= 0 or delta <= 0:
        raise PreconditionError("eps and delta must be positive")
    if op.A is not None or op.dim != 1:
        raise PreconditionError("the L1 construction is offered for m=1, A=identity")
    verdict = classify(op.activation)
    if verdict.kind not in ("Transitive", "LpTransitiveOnly"):
        raise PreconditionError(
            f"{op.activation.name} classified {verdict.kind}; need a "
            f"transitive or Lp-transitive activation"
        )
    from .rate_bounds import pushforward_density_norm

    push = pushforward_density_norm(op.activation, float(op.b[0]), mu)
    if not push.well_defined:
        raise PreconditionError(
            "the composition operator is not well-defined on L1(mu): the "
            "pushforward density is unbounded (flat stretch in the activation)"
        )

    diff0 = lp_norm(f - g, mu, 1.0, QUAD_NODES)
    if diff0 == 0.0:
        return TransitivityCertificate(
            0, g, 0.0, 0.0, 0.0, BLEND_MARGIN, "l1",
            (), (), op.activation.name, tuple(op.b),
        )

    probe = GridSpec(dim_in=1, dim_out=f.dim_out, points_per_axis=4001)
    bound = max(
        sup_norm_on_ball(f, max_radius, probe),
        sup_norm_on_ball(g, max_radius, probe),
    )
    budget = min(eps, delta) / (4.0 * (bound + 1.0))
    radius = None
    r = 1.0
    while r <= max_radius:
        if mu.tail_mass(r) <= budget:
            radius = r
            break
        r *= 2.0
    if radius is None and mu.tail_mass(max_radius) <= budget:
        radius = max_radius
    if radius is None:
        raise QuadratureError(
            f"measure tail too heavy: needs tail mass <= {budget:.3e} within "
            f"radius {max_radius}"
        )

    n, box_lo, box_hi, g_tilde, _ = _escape_blend_fit(op, g, f, radius)
    d_seed = lp_norm(g_tilde - g, mu, 1.0, QUAD_NODES)
    d_target = lp_norm(f - apply(op, g_tilde, n), mu, 1.0, QUAD_NODES)
    if not (d_seed < delta and d_target < eps):
        raise VerificationError(
            "L1 certificate verification failed",
            {"d_seed": d_seed, "delta": delta, "d_target": d_target, "eps": eps},
        )
    return TransitivityCertificate(
        n, g_tilde, d_seed, d_target, float(radius), BLEND_MARGIN, "l1",
        tuple(box_lo), tuple(box_hi), op.activation.name, tuple(op.b),
    )
