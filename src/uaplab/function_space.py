"""Function representations, grids, measures, and the metrics built on them.

The metric of uniform convergence on compacts is approximated by grid
suprema over the cubes [-k, k]^m and truncated after a configurable number
of series terms; every reported supremum is a lower bound on the true one,
and the truncation tail after ``terms`` terms is below 2**-terms because
each series term is strictly below 2**-k.  ``d_ucc`` samples each
function once over the stacked cubes, in batches of bounded size, and gets
the values of a term-by-term evaluation.  ``cube_points`` builds each grid
once per process, and ``lp_norm`` samples its points in small blocks.
"""

from __future__ import annotations

import functools
import inspect
import math
import operator
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteValueError,
    QuadratureError,
    check_keys,
    immutable,
)

__all__ = [
    "cube_points",
    "GridFunction",
    "Measure1D",
    "Weight",
    "weights_from_config",
    "WeightedSupResult",
    "d_ucc",
    "lp_norm",
    "sup_norm_on_ball",
    "weighted_sup_norm",
    "gaussian_measure",
    "uniform_window_measure",
    "table_measure",
    "measure_from_config",
]


# ---------------------------------------------------------------------------
# grids


# the grid cache keeps the GRID_CACHE_SIZE most recently used grids of at
# most GRID_CACHE_VALUES values each: 64 * 512 KiB = 32 MiB at worst
GRID_CACHE_SIZE = 64
GRID_CACHE_VALUES = 1 << 16


def cube_points(half_width, points: int, dim: int = 1) -> np.ndarray:
    """The uniform grid of ``points`` per axis over the cube [-h, h]^dim,
    as an (n_points, dim) array, the last axis varying fastest; with an odd
    ``points`` it contains the origin.  Several nonzero half-widths give
    their cubes' points stacked in order, each cube equal to its own call's;
    one ``np.linspace`` call with array ends builds every axis.

    The array is read-only.  Equal grids (the same half-widths as floats,
    ``points`` and ``dim``) of at most ``GRID_CACHE_VALUES`` values are
    built once per process: later calls return the same array while it is
    among the ``GRID_CACHE_SIZE`` most recently used."""
    if points < 2:
        raise ValueError("points must be >= 2")
    if dim > 3:
        raise ValueError("grids beyond 3 axes are not supported at desk scale")
    h = tuple(np.atleast_1d(np.asarray(half_width, dtype=np.float64)).tolist())
    points = operator.index(points)
    if len(h) * points**dim * dim > GRID_CACHE_VALUES:
        return _build_grid(h, points, dim)
    return _cached_grid(h, points, dim)


def _build_grid(h: tuple, points: int, dim: int) -> np.ndarray:
    axes = np.linspace(-np.asarray(h), np.asarray(h), points, axis=1)
    idx = np.indices((points,) * dim).reshape(dim, -1)
    grid = axes[:, idx].transpose(0, 2, 1).reshape(-1, dim)
    grid.flags.writeable = False
    return grid


_cached_grid = functools.lru_cache(maxsize=GRID_CACHE_SIZE)(_build_grid)


# ---------------------------------------------------------------------------
# functions


class GridFunction:
    """A total map R^m -> R^n backed by a vectorized closure.

    ``fn`` maps an (N, m) float array to an (N, n) float array.
    ``curvature``, where known, bounds |f''| off 0 (a kink of f may sit at
    0): the interpolating fits choose their knot spacing from it, and
    always place a knot at 0.
    """

    __setattr__ = __delattr__ = immutable

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], dim_in: int = 1,
                 dim_out: int = 1, name: str = "",
                 curvature: Optional[float] = None):
        vars(self).update(fn=fn, dim_in=dim_in, dim_out=dim_out, name=name,
                          curvature=curvature)

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
        )

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _check_same_dims(self, other)
        return GridFunction(
            lambda X, a=self, b=other: a.sample(X) - b.sample(X),
            self.dim_in,
            self.dim_out,
            name=f"({self.name}-{other.name})",
        )

    def __rmul__(self, c: float) -> "GridFunction":
        c = float(c)
        return GridFunction(
            lambda X, a=self: c * a.sample(X),
            self.dim_in,
            self.dim_out,
            name=f"({c}*{self.name})",
        )

    # constructors ---------------------------------------------------------
    @staticmethod
    def from_scalar(fn: Callable[[np.ndarray], np.ndarray], name: str = "",
                    curvature: Optional[float] = None) -> "GridFunction":
        """Wrap a vectorized scalar map R -> R."""
        return GridFunction(
            lambda X: np.asarray(fn(X[:, 0]), dtype=np.float64)[:, None],
            1,
            1,
            name=name,
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
                            curvature=0.0)


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


class Measure1D(NamedTuple):
    """Finite measure on R given by a positive density w.r.t. Lebesgue.

    ``quantile`` maps normalized levels in (0,1) to points (used for
    equal-mass quadrature nodes); ``cdf`` returns cumulative mass;
    ``density_sup(lo, hi)`` is the density's essential supremum on [lo, hi]
    in closed form, or an upper bound on it (ends may be infinite).  The
    transitivity theory additionally assumes the density is positive
    everywhere (Lebesgue equivalence); that is the caller's contract.
    """

    density: Callable[[np.ndarray], np.ndarray]
    total_mass: float
    quantile: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    density_sup: Callable[[float, float], float]

    def nodes(self, count: int) -> tuple[np.ndarray, float]:
        """Equal-mass quadrature nodes and the (constant) weight per node."""
        u = (np.arange(count) + 0.5) / count
        return np.asarray(self.quantile(u), dtype=np.float64), self.total_mass / count

    def tail_mass(self, radius: float) -> float:
        """Mass outside [-radius, radius]."""
        lo = float(self.cdf(np.asarray([-radius]))[0])
        hi = float(self.cdf(np.asarray([radius]))[0])
        return max(0.0, self.total_mass - (hi - lo))


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
    if not (math.isfinite(mean) and 0 < std < math.inf and 0 < mass < math.inf):
        raise ValueError("gaussian needs a finite mean and positive finite std "
                         f"and mass, got {mean!r}, {std!r}, {mass!r}")
    density = (lambda x: mass * np.exp(-0.5 * ((x - mean) / std) ** 2)
               / (std * np.sqrt(2 * np.pi)))
    return Measure1D(
        density=density,
        total_mass=mass,
        quantile=lambda u: mean + std * _ndtri(u),
        cdf=lambda x: mass * _ndtr((x - mean) / std),
        # the density falls with the distance from the mean
        density_sup=lambda lo, hi: float(density(min(max(mean, lo), hi))),
    )


def uniform_window_measure(lo: float, hi: float, height: float = 1.0) -> Measure1D:
    lo, hi, height = float(lo), float(hi), float(height)
    mass = (hi - lo) * height
    if not (hi > lo and height > 0
            and all(map(math.isfinite, (lo, hi, height, mass)))):
        raise ValueError("window needs finite lo < hi, a finite height > 0 and "
                         f"a finite mass, got {lo!r}, {hi!r}, {height!r}")
    return Measure1D(
        density=lambda x: np.where((x >= lo) & (x <= hi), height, 0.0),
        total_mass=mass,
        quantile=lambda u: lo + u * (hi - lo),
        cdf=lambda x: height * (np.clip(x, lo, hi) - lo),
        # a single point of the window carries no mass
        density_sup=lambda x0, x1: height if min(x1, hi) > max(x0, lo) else 0.0,
    )


def table_measure(xs: Sequence[float], densities: Sequence[float]) -> Measure1D:
    """The measure of the linearly interpolated density table, with the
    exact cdf cum_i + d_i*s + (d_{i+1} - d_i)*s**2/(2h) at s = x - x_i on
    the cell [x_i, x_i + h] and its cancellation-free inverse
    s = 2r / (d_i + sqrt(d_i**2 + 2(d_{i+1} - d_i)*r/h)) for the mass r
    past cum_i; a zero-density stretch's mass maps to its left end."""
    xs = np.asarray(xs, dtype=np.float64)
    ds = np.asarray(densities, dtype=np.float64)
    if xs.ndim != 1 or xs.shape != ds.shape or len(xs) < 2:
        raise ValueError("table needs matching 1-d xs/densities with >= 2 entries")
    if np.any(xs[1:] <= xs[:-1]) or np.any(ds < 0) or not np.any(ds > 0):
        raise ValueError("xs must increase; densities nonnegative, not all zero")
    with np.errstate(over="ignore"):  # an infinite mass is rejected below
        h, slope = np.diff(xs), np.diff(ds)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (ds[1:] + ds[:-1]) * h)])
    mass = float(cum[-1])
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ds))
            and math.isfinite(mass)):
        raise ValueError("table needs finite xs, densities and mass")

    def cdf(x):
        x = np.asarray(x, dtype=np.float64)
        i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(h) - 1)
        s = np.clip(x - xs[i], 0.0, h[i])
        inside = cum[i] + s * (ds[i] + slope[i] * s / (2.0 * h[i]))
        return np.where(x >= xs[-1], mass, inside)

    def quantile(u):
        m = np.clip(np.asarray(u, dtype=np.float64) * mass, 0.0, mass)
        i = np.clip(np.searchsorted(cum, m, side="left") - 1, 0, len(h) - 1)
        r = m - cum[i]
        root = ds[i] + np.sqrt(np.maximum(ds[i] ** 2 + 2.0 * slope[i] * r / h[i], 0.0))
        # root is 0 only where r is: the cell's left end
        s = 2.0 * r / np.where(root > 0, root, 1.0)
        return xs[i] + np.minimum(s, h[i])

    def density(x):
        return np.interp(x, xs, ds, left=0.0, right=0.0)

    def density_sup(lo, hi):
        # the interpolant is linear between knots
        inside = ds[(xs > lo) & (xs < hi)]
        return float(max(np.max(density([lo, hi])), np.max(inside, initial=0.0)))

    return Measure1D(
        density=density,
        total_mass=mass,
        quantile=quantile,
        cdf=cdf,
        density_sup=density_sup,
    )


def measure_from_config(cfg: dict) -> Measure1D:
    """The measure of {"density_kind": ..., "params": {...}}; the params
    are the keyword arguments of the kind's constructor.  An unknown key at
    either level is a ConfigError naming it."""
    check_keys(cfg, ("density_kind", "params"))
    kind = cfg["density_kind"]
    make = {"gaussian": gaussian_measure, "uniform_window": uniform_window_measure,
            "custom_table": table_measure}.get(kind)
    if make is None:
        raise ValueError(f"unknown density_kind {kind!r}")
    params = cfg.get("params", {})
    check_keys(params, inspect.signature(make).parameters, "params.")
    return make(**params)


# ---------------------------------------------------------------------------
# weight families


class Weight(NamedTuple):
    """Continuous growth weight [0, inf) -> [0, inf)."""

    kind: str
    param: float
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=np.float64))

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


def weights_from_config(cfg: Sequence[dict]) -> tuple[Weight, ...]:
    """The weights of a non-empty list of {"kind": ..., <argument>} configs,
    the argument named as in the kind's constructor (``power``'s ``i``,
    ``exp_decay``'s ``k``).  An unknown key is a ConfigError naming it."""
    if len(cfg) == 0:
        raise ValueError("weight family must be nonempty")
    ws = []
    for item in cfg:
        make = {"unit": Weight.unit, "power": Weight.power,
                "max_t_power": Weight.max_t_power,
                "exp_decay": Weight.exp_decay}.get(item["kind"])
        if make is None:
            raise ValueError(f"unknown weight kind {item['kind']!r}")
        args = {k: v for k, v in item.items() if k != "kind"}
        check_keys(args, inspect.signature(make).parameters)
        ws.append(make(**args))
    return tuple(ws)


# ---------------------------------------------------------------------------
# metrics and norms


def _norms(values: np.ndarray) -> np.ndarray:
    """||v|| of each row v of values.  One column takes |v|, which is exact
    where np.linalg.norm's sqrt(v*v) overflows (|v| above ~1.34e154) or
    underflows, and equals it bit for bit wherever v*v is normal."""
    if values.shape[1] == 1:
        return np.abs(values[:, 0])
    return np.linalg.norm(values, axis=1)


# most points one d_ucc call passes to ``sample`` at once, unless a single
# cube is larger: consecutive cubes share a call up to this size
DUCC_BATCH_POINTS = 1 << 16


def d_ucc(f: GridFunction, g: GridFunction, terms: int = 20,
          points: int = 401) -> float:
    """Truncated metric of uniform convergence on compacts.

    Sum over k = 1..terms of s_k / (2**k * (1 + s_k)) where s_k is the grid
    supremum of ||f-g|| over [-k, k]^m, ``points`` per axis.  The omitted
    tail is below 2**-terms; the grid supremum is a lower bound on the true
    one, so the returned value is a lower bound as well.
    On sampled representatives this is a pseudometric: functions agreeing
    at every grid point are indistinguishable, and no equality of the
    underlying functions is certified.

    The cubes' points are stacked, and each function is sampled once per
    batch of consecutive cubes holding at most ``DUCC_BATCH_POINTS`` points
    (a larger cube goes alone): a one-input grid takes one batch, and one
    ``cube_points`` call gives each batch's points, built once per
    process.  Where a
    sample maps each point on its own, every s_k, and the sum taken in k
    order, equal those of a term-by-term evaluation bit for bit.  A
    non-finite value raises for the first term k that holds one.
    """
    _check_same_dims(f, g)
    if terms < 1:
        raise ValueError("terms must be >= 1")
    size = points ** f.dim_in
    per_call = max(1, DUCC_BATCH_POINTS // size)
    total = 0.0
    for first in range(1, terms + 1, per_call):
        ks = range(first, min(first + per_call, terms + 1))
        pts = cube_points(ks, points, f.dim_in)
        diff = f.sample(pts) - g.sample(pts)
        if not np.all(np.isfinite(diff)):
            for i, k in enumerate(ks):
                cube = slice(i * size, (i + 1) * size)
                _ensure_finite(diff[cube], pts[cube], f"computing d_ucc term k={k}")
        sups = np.maximum.reduceat(_norms(diff), np.arange(0, len(pts), size))
        for k, s in zip(ks, sups.tolist()):
            total += s / (2.0**k * (1.0 + s))
    return total


# most points one lp_norm call passes to ``sample`` at once: a block's
# one-column float64 temporaries (64 KiB) stay below glibc's 128 KiB mmap
# threshold, so they do not churn the heap
LP_BLOCK_POINTS = 1 << 13


def lp_norm(f: GridFunction, pts: np.ndarray, w: float,
            p: float = 1.0) -> float:
    """(w * sum ||f(x)||^p over the points x of pts)^(1/p): the L^p norm
    by a quadrature rule with one weight w for every point, such as a
    measure's equal-mass nodes and weight (``Measure1D.nodes``).

    f is sampled in blocks of at most ``LP_BLOCK_POINTS`` points and one
    ``np.sum`` adds the terms of all blocks, so where a sample maps each
    point on its own the norm equals a one-shot evaluation's bit for bit.
    A non-finite sum raises QuadratureError with ``point`` the first point
    whose term ||f(x)||^p is not finite, or None when every term is finite
    and only their sum overflows."""
    norms = np.concatenate([
        _norms(f.sample(pts[i:i + LP_BLOCK_POINTS]))
        for i in range(0, len(pts) or 1, LP_BLOCK_POINTS)  # one if empty
    ])
    with np.errstate(over="ignore"):
        terms = norms**p
        total = float(np.sum(terms) * w)
    if not np.isfinite(total):
        bad = np.flatnonzero(~np.isfinite(terms))
        point = np.asarray(pts[bad[0]]).tolist() if len(bad) else None
        raise QuadratureError(
            f"non-integrable blow-up in L^p quadrature (first bad point {point})",
            point,
        )
    return total ** (1.0 / p)


def sup_norm_on_ball(f: GridFunction, radius: float,
                     points: int = 401) -> float:
    """Grid supremum of ||f|| over the closed euclidean ball, ``points`` per
    axis of its bounding cube (a lower bound)."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    pts = cube_points(radius, points, f.dim_in)
    if f.dim_in > 1:
        pts = pts[np.linalg.norm(pts, axis=1) <= radius]
    vals = f.sample(pts)
    _ensure_finite(vals, pts, "computing sup norm on ball")
    return float(np.max(_norms(vals)))


class WeightedSupResult(NamedTuple):
    value: float
    diverged: bool
    radius_reached: float


SUP_STABLE_TOL = 1e-3   # growth of the running sup that counts as stable
SUP_START_RADIUS = 1.0  # half-width of the first cube
SUP_MAX_RADIUS = 1e6    # half-width past which a growing sup has diverged


def weighted_sup_norm(f: GridFunction, omega: Callable,
                      points: int = 401) -> WeightedSupResult:
    """Running supremum of ||f(x)|| / (omega(||x||) + 1) over expanding cubes.

    Each cube [-r, r]^m is sampled on ``points`` per axis.  The
    half-width r starts at ``SUP_START_RADIUS`` and doubles until the
    supremum stabilizes within ``SUP_STABLE_TOL`` over two consecutive
    doublings (convergence of the running sup alone can be deceptive when
    the maximizer migrates outward) or ``SUP_MAX_RADIUS`` is passed while
    the supremum still grows (``diverged=True``).  Non-finite ratios also
    flag divergence.
    """
    radius = SUP_START_RADIUS
    prev = None
    running = 0.0
    stable = 0
    while radius <= SUP_MAX_RADIUS:
        pts = cube_points(radius, points, f.dim_in)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _norms(f.sample(pts))
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
