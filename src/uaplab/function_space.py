"""Function representations, grids, measures, and the metrics built on them.

The metric of uniform convergence on compacts is approximated by grid
suprema over the cubes [-k, k]^m and truncated after a configurable number
of series terms; every reported supremum is a lower bound on the true one,
and the truncation tail is bounded by ``d_ucc_tail_bound(terms)`` because
each series term is strictly below 2**-k.  ``d_ucc`` samples each
function once over the stacked cubes, in batches of bounded size, and gets
the values of a term-by-term evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteValueError,
    QuadratureError,
)

__all__ = [
    "GridSpec",
    "GridFunction",
    "Measure1D",
    "Weight",
    "WeightFamily",
    "WeightedSupResult",
    "d_ucc",
    "d_ucc_tail_bound",
    "lp_norm",
    "sup_norm_on_ball",
    "weighted_sup_norm",
    "gaussian_measure",
    "uniform_window_measure",
    "table_measure",
    "measure_to_config",
    "measure_from_config",
]


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid: [-radius, radius]^dim_in, points_per_axis each way.

    When ``points_per_axis`` is odd the grid contains the origin.
    """

    dim_in: int = 1
    dim_out: int = 1
    points_per_axis: int = 401
    radius: float = 1.0

    def __post_init__(self):
        if self.dim_in < 1 or self.dim_out < 1:
            raise ValueError("dimensions must be positive")
        if self.points_per_axis < 2:
            raise ValueError("points_per_axis must be >= 2")
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    def axis(self, half_width: Optional[float] = None) -> np.ndarray:
        r = self.radius if half_width is None else float(half_width)
        return np.linspace(-r, r, self.points_per_axis)

    def cube_points(self, half_width: Optional[float] = None) -> np.ndarray:
        """All grid points of the cube [-h, h]^m as an (n_points, m) array."""
        ax = self.axis(half_width)
        m = self.dim_in
        if m == 1:
            return ax[:, None]
        if m > 3:
            raise ValueError("grids beyond 3 axes are not supported at desk scale")
        grids = np.meshgrid(*([ax] * m), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def refined(self, factor: int = 2) -> "GridSpec":
        """Same cube, ``factor`` times as many intervals per axis."""
        return GridSpec(
            self.dim_in,
            self.dim_out,
            (self.points_per_axis - 1) * factor + 1,
            self.radius,
        )

    def to_config(self) -> dict:
        return {
            "dim_in": self.dim_in,
            "dim_out": self.dim_out,
            "points_per_axis": self.points_per_axis,
            "radius": self.radius,
        }

    @staticmethod
    def from_config(cfg: dict) -> "GridSpec":
        return GridSpec(
            int(cfg["dim_in"]),
            int(cfg["dim_out"]),
            int(cfg["points_per_axis"]),
            float(cfg["radius"]),
        )


# ---------------------------------------------------------------------------
# functions


@dataclass(frozen=True)
class GridFunction:
    """A total map R^m -> R^n backed by a vectorized closure.

    ``fn`` maps an (N, m) float array to an (N, n) float array.  Functions
    that legitimately grow without bound (e.g. the identity) should set
    ``unbounded=True`` so the weighted-norm machinery reports divergence
    instead of raising on overflow.  ``curvature``, where known, bounds
    |f''| off 0 (a kink of f may sit at 0): the interpolating fits choose
    their knot spacing from it, and always place a knot at 0.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    dim_in: int = 1
    dim_out: int = 1
    name: str = ""
    unbounded: bool = False
    curvature: Optional[float] = None

    def sample(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[1] != self.dim_in:
            raise DimensionMismatchError(
                f"function {self.name or '<anonymous>'} expects dim_in="
                f"{self.dim_in}, got points of dimension {pts.shape[1]}"
            )
        out = np.asarray(self.fn(pts), dtype=np.float64)
        if out.ndim == 1:
            out = out[:, None]
        if out.shape != (pts.shape[0], self.dim_out):
            raise DimensionMismatchError(
                f"function {self.name or '<anonymous>'} returned shape "
                f"{out.shape}, expected {(pts.shape[0], self.dim_out)}"
            )
        return out

    def __call__(self, x):
        pt = np.atleast_1d(np.asarray(x, dtype=np.float64))
        out = self.sample(pt[None, :])[0]
        return float(out[0]) if self.dim_out == 1 else out

    # small algebra, enough for the linearity/property tests
    def __add__(self, other: "GridFunction") -> "GridFunction":
        _check_same_dims(self, other)
        return GridFunction(
            lambda X, a=self, b=other: a.sample(X) + b.sample(X),
            self.dim_in,
            self.dim_out,
            name=f"({self.name}+{other.name})",
            unbounded=self.unbounded or other.unbounded,
        )

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _check_same_dims(self, other)
        return GridFunction(
            lambda X, a=self, b=other: a.sample(X) - b.sample(X),
            self.dim_in,
            self.dim_out,
            name=f"({self.name}-{other.name})",
            unbounded=self.unbounded or other.unbounded,
        )

    def __rmul__(self, c: float) -> "GridFunction":
        c = float(c)
        return GridFunction(
            lambda X, a=self: c * a.sample(X),
            self.dim_in,
            self.dim_out,
            name=f"({c}*{self.name})",
            unbounded=self.unbounded,
        )

    # constructors ---------------------------------------------------------
    @staticmethod
    def from_scalar(fn: Callable[[np.ndarray], np.ndarray], name: str = "",
                    unbounded: bool = False,
                    curvature: Optional[float] = None) -> "GridFunction":
        """Wrap a vectorized scalar map R -> R."""
        return GridFunction(
            lambda X: np.asarray(fn(X[:, 0]), dtype=np.float64)[:, None],
            1,
            1,
            name=name,
            unbounded=unbounded,
            curvature=curvature,
        )

    @staticmethod
    def constant(value, dim_in: int = 1) -> "GridFunction":
        vec = np.atleast_1d(np.asarray(value, dtype=np.float64))
        return GridFunction(
            lambda X: np.tile(vec, (X.shape[0], 1)),
            dim_in,
            len(vec),
            name=f"const{tuple(vec)}",
            curvature=0.0,
        )

    @staticmethod
    def zero(dim_in: int = 1, dim_out: int = 1) -> "GridFunction":
        return GridFunction(
            lambda X: np.zeros((X.shape[0], dim_out)),
            dim_in,
            dim_out,
            name="zero",
            curvature=0.0,
        )

    @staticmethod
    def identity(dim: int = 1) -> "GridFunction":
        return GridFunction(lambda X: X.copy(), dim, dim, name="id",
                            unbounded=True, curvature=0.0)


def _check_same_dims(f: GridFunction, g: GridFunction) -> None:
    if f.dim_in != g.dim_in or f.dim_out != g.dim_out:
        raise DimensionMismatchError(
            f"dimension mismatch: ({f.dim_in},{f.dim_out}) vs ({g.dim_in},{g.dim_out})"
        )


def _ensure_finite(values: np.ndarray, points: np.ndarray, context: str) -> None:
    bad = ~np.isfinite(values)
    if np.any(bad):
        i = int(np.argwhere(bad.any(axis=1))[0][0])
        raise NonFiniteValueError(points[i].tolist(), values[i].tolist(), context)


# ---------------------------------------------------------------------------
# measures


@dataclass(frozen=True)
class Measure1D:
    """Finite measure on R given by a positive density w.r.t. Lebesgue.

    ``quantile`` maps normalized levels in (0,1) to points (used for
    equal-mass quadrature nodes); ``cdf`` returns cumulative mass.  The
    transitivity theory additionally assumes the density is positive
    everywhere (Lebesgue equivalence); that is the caller's contract.
    """

    density: Callable[[np.ndarray], np.ndarray]
    total_mass: float
    quantile: Callable[[np.ndarray], np.ndarray]
    cdf: Optional[Callable[[np.ndarray], np.ndarray]] = None
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    def nodes(self, count: int) -> tuple[np.ndarray, float]:
        """Equal-mass quadrature nodes and the (constant) weight per node."""
        u = (np.arange(count) + 0.5) / count
        return np.asarray(self.quantile(u), dtype=np.float64), self.total_mass / count

    def tail_mass(self, radius: float) -> float:
        """Mass outside [-radius, radius] (requires a cdf)."""
        if self.cdf is None:
            raise QuadratureError("measure has no cdf; tail mass unavailable")
        lo = float(self.cdf(np.asarray([-radius]))[0])
        hi = float(self.cdf(np.asarray([radius]))[0])
        return max(0.0, self.total_mass - (hi - lo))

    def validate(self, rtol: float = 1e-2, nodes: int = 20001) -> bool:
        """Check that the density integrates to total_mass (trapezoid)."""
        u = np.linspace(1e-9, 1 - 1e-9, 2)
        span = self.quantile(u)
        xs = np.linspace(span[0], span[1], nodes)
        mass = float(np.trapezoid(self.density(xs), xs))
        return abs(mass - self.total_mass) <= rtol * max(1.0, self.total_mass)


# Wichura, "Algorithm AS 241: The percentage points of the normal
# distribution", Applied Statistics 37 (1988), PPND16: rational
# approximations for the central region |p - 1/2| <= 0.425 and for the two
# tails in r = sqrt(-log(min(p, 1 - p))), split at r = 5.  Coefficients are
# listed highest degree first, as np.polyval takes them.
_AS241_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_AS241_NEAR_TAIL = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0),
)
_AS241_FAR_TAIL = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


def _ratio(coeffs, r: np.ndarray) -> np.ndarray:
    num, den = coeffs
    return np.polyval(num, r) / np.polyval(den, r)


def _ndtri(p) -> np.ndarray:
    """Standard normal quantile (AS 241); exactly -inf at 0 and +inf at 1,
    nan outside [0, 1]."""
    p = np.asarray(p, dtype=np.float64)
    out = np.full(p.shape, np.nan)
    q = p - 0.5
    central = np.abs(q) <= 0.425
    r = 0.180625 - q[central] ** 2
    out[central] = q[central] * _ratio(_AS241_CENTRAL, r)
    tail = (p > 0) & (p < 1) & ~central
    # the tail is computed from the smaller of p and 1 - p: 0.5 - |q| would
    # lose the low digits of p near 0
    r = np.sqrt(-np.log(np.minimum(p[tail], 1.0 - p[tail])))
    near = r <= 5.0
    z = np.empty_like(r)
    z[near] = _ratio(_AS241_NEAR_TAIL, r[near] - 1.6)
    z[~near] = _ratio(_AS241_FAR_TAIL, r[~near] - 5.0)
    out[tail] = np.where(q[tail] < 0, -z, z)
    out[p == 0] = -np.inf
    out[p == 1] = np.inf
    return out


def _ndtr(z) -> np.ndarray:
    """Standard normal cdf, pointwise through math.erfc."""
    z = np.asarray(z, dtype=np.float64)
    vals = [0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.ravel().tolist()]
    return np.asarray(vals, dtype=np.float64).reshape(z.shape)


def gaussian_measure(mean: float = 0.0, std: float = 1.0, mass: float = 1.0) -> Measure1D:
    mean, std, mass = float(mean), float(std), float(mass)
    return Measure1D(
        density=lambda x: mass * np.exp(-0.5 * ((x - mean) / std) ** 2)
        / (std * np.sqrt(2 * np.pi)),
        total_mass=mass,
        quantile=lambda u: mean + std * _ndtri(u),
        cdf=lambda x: mass * _ndtr((x - mean) / std),
        kind="gaussian",
        params={"mean": mean, "std": std, "mass": mass},
    )


def uniform_window_measure(lo: float, hi: float, height: float = 1.0) -> Measure1D:
    lo, hi, height = float(lo), float(hi), float(height)
    if not hi > lo or not height > 0:
        raise ValueError("window needs hi > lo and height > 0")
    mass = (hi - lo) * height
    return Measure1D(
        density=lambda x: np.where((x >= lo) & (x <= hi), height, 0.0),
        total_mass=mass,
        quantile=lambda u: lo + u * (hi - lo),
        cdf=lambda x: height * (np.clip(x, lo, hi) - lo),
        kind="uniform_window",
        params={"lo": lo, "hi": hi, "height": height},
    )


def table_measure(xs: Sequence[float], densities: Sequence[float]) -> Measure1D:
    xs = np.asarray(xs, dtype=np.float64)
    ds = np.asarray(densities, dtype=np.float64)
    if xs.ndim != 1 or xs.shape != ds.shape or len(xs) < 2:
        raise ValueError("table needs matching 1-d xs/densities with >= 2 entries")
    if np.any(np.diff(xs) <= 0) or np.any(ds < 0) or not np.any(ds > 0):
        raise ValueError("xs must increase; densities nonnegative, not all zero")
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (ds[1:] + ds[:-1]) * np.diff(xs))])
    mass = float(cum[-1])
    meas = Measure1D(
        density=lambda x: np.interp(x, xs, ds, left=0.0, right=0.0),
        total_mass=mass,
        quantile=lambda u: np.interp(np.asarray(u) * mass, cum, xs),
        cdf=lambda x: np.interp(x, xs, cum, left=0.0, right=mass),
        kind="custom_table",
        params={"xs": xs.tolist(), "densities": ds.tolist()},
    )
    if not meas.validate():
        raise QuadratureError("table density does not integrate to its mass")
    return meas


def measure_to_config(mu: Measure1D) -> dict:
    return {"density_kind": mu.kind, "params": dict(mu.params)}


def measure_from_config(cfg: dict) -> Measure1D:
    kind = cfg["density_kind"]
    params = cfg.get("params", {})
    if kind == "gaussian":
        return gaussian_measure(
            params.get("mean", 0.0), params.get("std", 1.0), params.get("mass", 1.0)
        )
    if kind == "uniform_window":
        return uniform_window_measure(
            params["lo"], params["hi"], params.get("height", 1.0)
        )
    if kind == "custom_table":
        return table_measure(params["xs"], params["densities"])
    raise ValueError(f"unknown density_kind {kind!r}")


# ---------------------------------------------------------------------------
# weight families


@dataclass(frozen=True)
class Weight:
    """Continuous growth weight [0, inf) -> [0, inf)."""

    kind: str
    param: float
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=np.float64))

    def to_config(self) -> dict:
        if self.kind == "unit":
            return {"kind": "unit"}
        if self.kind == "power":
            return {"kind": "power", "i": self.param}
        if self.kind == "max_t_power":
            return {"kind": "max_t_power", "i": self.param}
        if self.kind == "exp_decay":
            return {"kind": "exp_decay", "k": self.param}
        raise ValueError(f"weight kind {self.kind!r} is not serializable")

    @staticmethod
    def unit() -> "Weight":
        return Weight("unit", 0.0, lambda t: np.ones_like(t))

    @staticmethod
    def power(i: float) -> "Weight":
        i = float(i)
        return Weight("power", i, lambda t: t**i)

    @staticmethod
    def max_t_power(i: float) -> "Weight":
        i = float(i)
        return Weight("max_t_power", i, lambda t: np.maximum(t, t**i))

    @staticmethod
    def exp_decay(k: float) -> "Weight":
        k = float(k)
        return Weight("exp_decay", k, lambda t: np.exp(-k * t))


@dataclass(frozen=True)
class WeightFamily:
    """Finite family of growth weights; must contain the unit weight to be
    usable by the growth-approximation pipeline."""

    weights: tuple

    def __post_init__(self):
        if len(self.weights) == 0:
            raise ValueError("weight family must be nonempty")

    @property
    def contains_unit(self) -> bool:
        t = np.linspace(0.0, 100.0, 101)
        return any(np.allclose(w(t), 1.0) for w in self.weights)

    def to_config(self) -> list:
        return [w.to_config() for w in self.weights]

    @staticmethod
    def from_config(cfg: Sequence[dict]) -> "WeightFamily":
        ws = []
        for item in cfg:
            kind = item["kind"]
            if kind == "unit":
                ws.append(Weight.unit())
            elif kind == "power":
                ws.append(Weight.power(item["i"]))
            elif kind == "max_t_power":
                ws.append(Weight.max_t_power(item["i"]))
            elif kind == "exp_decay":
                ws.append(Weight.exp_decay(item["k"]))
            else:
                raise ValueError(f"unknown weight kind {kind!r}")
        return WeightFamily(tuple(ws))


# ---------------------------------------------------------------------------
# metrics and norms


def d_ucc_tail_bound(terms: int) -> float:
    """Upper bound on the truncated series tail (each term is < 2**-k)."""
    return 2.0 ** (-int(terms))


# most points one d_ucc call passes to ``sample`` at once, unless a single
# cube is larger: consecutive cubes share a call up to this size
DUCC_BATCH_POINTS = 1 << 16


def d_ucc(f: GridFunction, g: GridFunction, terms: int = 20,
          grid: Optional[GridSpec] = None) -> float:
    """Truncated metric of uniform convergence on compacts.

    Sum over k = 1..terms of s_k / (2**k * (1 + s_k)) where s_k is the grid
    supremum of ||f-g|| over [-k, k]^m.  The omitted tail is below
    ``d_ucc_tail_bound(terms)``; the grid supremum is a lower bound on the
    true one, so the returned value is a lower bound as well.  On sampled
    representatives this is a pseudometric: functions agreeing at every grid
    point are indistinguishable, and no equality of the underlying functions
    is certified.

    The cubes' points are stacked, and each function is sampled once per
    batch of consecutive cubes holding at most ``DUCC_BATCH_POINTS`` points
    (a larger cube goes alone): a one-input grid takes one batch.  Where a
    sample maps each point on its own, every s_k, and the sum taken in k
    order, equal those of a term-by-term evaluation bit for bit.  A
    non-finite value raises for the first term k that holds one.
    """
    _check_same_dims(f, g)
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if grid is None:
        grid = GridSpec(dim_in=f.dim_in, dim_out=f.dim_out)
    size = grid.points_per_axis ** grid.dim_in
    per_call = max(1, DUCC_BATCH_POINTS // size)
    total = 0.0
    for first in range(1, terms + 1, per_call):
        ks = range(first, min(first + per_call, terms + 1))
        pts = np.concatenate([grid.cube_points(float(k)) for k in ks])
        diff = f.sample(pts) - g.sample(pts)
        if not np.all(np.isfinite(diff)):
            for i, k in enumerate(ks):
                cube = slice(i * size, (i + 1) * size)
                _ensure_finite(diff[cube], pts[cube], f"computing d_ucc term k={k}")
        sups = np.maximum.reduceat(np.linalg.norm(diff, axis=1),
                                   np.arange(0, len(pts), size))
        for k, s in zip(ks, sups.tolist()):
            total += s / (2.0**k * (1.0 + s))
    return total


def lp_norm(f: GridFunction, mu, p: float = 1.0, quad_nodes: int = 10_000) -> float:
    """L^p norm w.r.t. a product of per-axis measures, by equal-mass quadrature.

    Product measures are supported for dim_in <= 2 (for 2 axes the per-axis
    node count is capped at 512 to keep the tensor grid at desk scale).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    mus = [mu] if isinstance(mu, Measure1D) else list(mu)
    m = f.dim_in
    if len(mus) != m:
        raise DimensionMismatchError(
            f"need one measure per axis: got {len(mus)} for dim_in={m}"
        )
    if m > 2:
        raise DimensionMismatchError("product quadrature supports dim_in <= 2")
    per_axis = quad_nodes if m == 1 else min(quad_nodes, 512)
    axes, weights = zip(*(mi.nodes(per_axis) for mi in mus))
    if m == 1:
        pts = axes[0][:, None]
    else:
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.stack([g0.ravel(), g1.ravel()], axis=1)
    w = float(np.prod(weights))
    vals = np.linalg.norm(f.sample(pts), axis=1)
    total = float(np.sum(vals**p) * w)
    if not np.isfinite(total):
        bad = ~np.isfinite(vals)
        pt = pts[int(np.argmax(bad))] if np.any(bad) else None
        raise QuadratureError(
            f"non-integrable blow-up in L^p quadrature (first bad point {pt})"
        )
    return total ** (1.0 / p)


def sup_norm_on_ball(f: GridFunction, radius: float,
                     grid: Optional[GridSpec] = None) -> float:
    """Grid supremum of ||f|| over the closed euclidean ball (a lower bound)."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    if grid is None:
        grid = GridSpec(dim_in=f.dim_in, dim_out=f.dim_out)
    pts = grid.cube_points(radius)
    if f.dim_in > 1:
        pts = pts[np.linalg.norm(pts, axis=1) <= radius]
    vals = f.sample(pts)
    _ensure_finite(vals, pts, "computing sup norm on ball")
    return float(np.max(np.linalg.norm(vals, axis=1)))


@dataclass(frozen=True)
class WeightedSupResult:
    value: float
    diverged: bool
    radius_reached: float

    def __float__(self):
        return self.value


SUP_STABLE_TOL = 1e-3  # growth of the running sup that counts as stable
SUP_MAX_RADIUS = 1e6   # ball radius past which a growing sup has diverged


def weighted_sup_norm(f: GridFunction, omega: Callable,
                      grid: Optional[GridSpec] = None) -> WeightedSupResult:
    """Running supremum of ||f(x)|| / (omega(||x||) + 1) over expanding balls.

    The ball radius doubles until the supremum stabilizes within
    ``SUP_STABLE_TOL`` over two consecutive doublings (convergence of the
    running sup alone can be deceptive when the maximizer migrates outward)
    or ``SUP_MAX_RADIUS`` is passed while the supremum still grows
    (``diverged=True``).  Non-finite ratios also flag divergence.
    """
    if grid is None:
        grid = GridSpec(dim_in=f.dim_in, dim_out=f.dim_out)
    radius = max(grid.radius, 1.0)
    prev = None
    running = 0.0
    stable = 0
    while radius <= SUP_MAX_RADIUS:
        pts = grid.cube_points(radius)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.linalg.norm(f.sample(pts), axis=1)
            denom = np.asarray(omega(np.linalg.norm(pts, axis=1))) + 1.0
            ratio = vals / denom
        if not np.all(np.isfinite(ratio)):
            return WeightedSupResult(float("inf"), True, radius)
        running = max(running, float(np.max(ratio)))
        if prev is not None and running - prev <= SUP_STABLE_TOL:
            stable += 1
            if stable >= 2:
                return WeightedSupResult(running, False, radius)
        else:
            stable = 0
        prev = running
        radius *= 2.0
    return WeightedSupResult(running, True, radius / 2.0)
