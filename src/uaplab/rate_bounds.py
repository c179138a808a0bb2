"""Convex-hull approximation rates for iterated-composition bases.

Simplex-constrained L1 fitting is done with Frank-Wolfe: the linear
subproblem over the simplex is solved at a vertex, every iterate is an exact
convex combination, and the nonsmooth objective uses the sign subgradient
(ties resolved as 0).  Plain Frank-Wolfe is not per-iterate monotone on a
nonsmooth objective, so the reported coefficients and residual are
best-so-far, which is what the recorded history contains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .activations import ActivationSpec
from .errors import (
    DimensionMismatchError,
    PreconditionError,
    VerificationError,
)
from .function_space import GridFunction, GridSpec, Measure1D
from .network import TreeFunction

__all__ = [
    "PushforwardReport",
    "SimplexFit",
    "RateSweepTable",
    "pushforward_density_norm",
    "simplex_fit",
    "rate_sweep",
    "kappa_growth_check",
    "trees_basis_family",
]


# ---------------------------------------------------------------------------
# pushforward density


@dataclass(frozen=True)
class PushforwardReport:
    norm_value: float
    well_defined: bool
    kappa_check: bool
    witness_interval: Optional[tuple] = None

    def to_config(self) -> dict:
        return {
            "norm_value": self.norm_value,
            "well_defined": self.well_defined,
            "kappa_check": self.kappa_check,
            "witness_interval": list(self.witness_interval)
            if self.witness_interval
            else None,
        }


def pushforward_density_norm(sigma: ActivationSpec, b: float, mu: Measure1D,
                             grid: Optional[GridSpec] = None) -> PushforwardReport:
    """Sup of the density of the pushforward of mu under x -> sigma(x + b).

    At y = S(x) the pushforward density is density(x) / S'(x), so the norm is
    the grid maximum of density(x)/sigma'(x+b); the map is well-defined on L1
    exactly when the derivative is bounded away from zero (monotone
    criterion).  A flat stretch (e.g. the rectifier's zero branch) is
    reported with its witness interval.
    """
    b = float(b)
    n_pts = (grid.points_per_axis * 50) if grid is not None else 200_001
    q = mu.quantile(np.asarray([1e-9, 1.0 - 1e-9]))
    lo = float(q[0]) - abs(b) - 1.0
    hi = float(q[1]) + abs(b) + 1.0
    xs = [np.linspace(lo, hi, n_pts)]
    for bp in sigma.breakpoints:
        xs.append(np.asarray([bp - b - 1e-9, bp - b, bp - b + 1e-9]))
    x = np.unique(np.concatenate(xs))
    slope = np.asarray(sigma.derivative(x + b), dtype=np.float64)

    flat = slope <= 1e-12
    if np.any(flat):
        i = int(np.argmax(flat))
        j = len(flat) - 1 - int(np.argmax(flat[::-1]))
        return PushforwardReport(
            float("inf"), False, False, (float(x[i]), float(x[j]))
        )
    dens = np.asarray(mu.density(x), dtype=np.float64)
    norm = float(np.max(dens / slope))
    return PushforwardReport(norm, True, norm > 1.0)


# ---------------------------------------------------------------------------
# Frank-Wolfe over the simplex


@dataclass(frozen=True)
class SimplexFit:
    coefficients: np.ndarray
    basis_ids: tuple
    residual: float
    iterations: int
    history: tuple  # best-so-far residual per iteration


def simplex_fit(basis: Sequence[GridFunction], target: GridFunction,
                mu: Measure1D, max_iter: int = 2000,
                quad_nodes: int = 2001,
                init: Optional[np.ndarray] = None,
                restarts: int = 1) -> SimplexFit:
    """Best convex combination of the basis in L1(mu), by Frank-Wolfe.

    Each pass does vertex steps with the diminishing 2/(k+2) schedule on the
    sign-subgradient linearization; since that scheme can stall on the
    nonsmooth objective, the fit runs ``restarts`` deterministic passes (from
    the best single elements, plus one from ``init`` when given) and returns
    the best iterate seen.  ``init`` warm-starts the coefficients (padded
    with zeros if shorter than the basis), which makes sweeps over nested
    bases monotone by construction.  The recorded history is the running
    best, which is also what the returned residual reports.
    """
    if len(basis) == 0:
        raise PreconditionError("basis must be nonempty")
    if target.dim_out != 1 or any(f.dim_out != 1 for f in basis):
        raise DimensionMismatchError("simplex fitting handles scalar outputs")
    nodes, w = mu.nodes(quad_nodes)
    pts = nodes[:, None]
    B = np.column_stack([f.sample(pts)[:, 0] for f in basis])
    t = target.sample(pts)[:, 0]
    nb = len(basis)

    def residual_of(vec: np.ndarray) -> float:
        return float(w * np.sum(np.abs(B @ vec - t)))

    singles = np.array([float(w * np.sum(np.abs(B[:, i] - t))) for i in range(nb)])
    starts: list[tuple[np.ndarray, int]] = []
    if init is not None and len(init) <= nb and np.sum(init) > 0:
        padded = np.zeros(nb)
        padded[: len(init)] = np.maximum(np.asarray(init, dtype=np.float64), 0.0)
        # a warm start is a mature iterate: resume the schedule further in
        starts.append((padded / padded.sum(), 16))
    for idx in np.argsort(singles)[: max(1, int(restarts))]:
        vertex = np.zeros(nb)
        vertex[int(idx)] = 1.0
        starts.append((vertex, 0))

    best: Optional[np.ndarray] = None
    best_res = float("inf")
    history: list[float] = []
    total_iters = 0
    for alpha, k_offset in starts:
        alpha = alpha.copy()
        res = residual_of(alpha)
        if res < best_res:
            best_res, best = res, alpha.copy()
        history.append(best_res)
        for k in range(int(max_iter)):
            r = B @ alpha - t
            grad = w * (np.sign(r) @ B)
            s = int(np.argmin(grad))
            gamma = 2.0 / (k + k_offset + 2.0)
            alpha = (1.0 - gamma) * alpha + gamma * np.eye(1, nb, s)[0]
            alpha = alpha / alpha.sum()
            res = residual_of(alpha)
            if res < best_res:
                best_res = res
                best = alpha.copy()
            history.append(best_res)
            total_iters += 1
    assert best is not None
    return SimplexFit(best, tuple(range(nb)), best_res, total_iters, tuple(history))


# ---------------------------------------------------------------------------
# rate sweep


def trees_basis_family(amp_range=(0.25, 2.0), left_range=(-1.5, 1.0),
                       len_range=(0.25, 2.5)) -> Callable:
    """Family of single-interval indicator trees with prefix-consistent draws:
    for one seed, the first k members agree across counts."""

    def family(seed: int, count: int) -> list:
        rng = np.random.default_rng(seed)
        u = rng.uniform(size=(count, 3))
        out = []
        for i in range(count):
            a = amp_range[0] + u[i, 0] * (amp_range[1] - amp_range[0])
            left = left_range[0] + u[i, 1] * (left_range[1] - left_range[0])
            length = len_range[0] + u[i, 2] * (len_range[1] - len_range[0])
            out.append(
                TreeFunction(((a, left, left + length),)).as_gridfunction(
                    name=f"tree{i}"
                )
            )
        return out

    return family


@dataclass(frozen=True)
class RateSweepTable:
    rows: tuple  # dicts: n, N, residual, bound_reference, bound_displayed, bound_proof_final
    slope_estimate: float
    pushforward_norm: float

    def to_rows(self) -> list:
        out = []
        for row in self.rows:
            r = dict(row)
            r["slope_estimate"] = self.slope_estimate
            out.append(r)
        return out


def rate_sweep(basis_family: Callable, target: GridFunction, mu: Measure1D,
               n_values: Sequence[int], N: int, op, seed: int = 0,
               quad_nodes: int = 2001, max_iter: int = 1500,
               restarts: int = 4) -> RateSweepTable:
    """Residual of the best simplex combination of n iterated basis draws.

    Emits, next to each residual, three reference curves at depth N: the
    honest Lipschitz propagation norm^N * (1 + sqrt(2*mass))/sqrt(n) (used as
    bound_reference), the displayed norm^{N/2} variant, and the final-chain
    variant with the operator-norm factor dropped; at N=0 all three agree.
    The n values run in the given order, each fit warm-started from the
    previous one's coefficients while n increases.
    """
    from .depth_dynamics import apply  # local import to avoid a cycle

    if N > 0 and op is None:
        raise PreconditionError("depth N > 0 needs a composition operator")
    mass = mu.total_mass
    if op is not None:
        push = pushforward_density_norm(op.activation, float(op.b[0]), mu)
        if not push.well_defined:
            raise PreconditionError("pushforward density unbounded: operator "
                                    "not well-defined on L1(mu)")
        norm = push.norm_value
    else:
        norm = 1.0

    def one(n: int, init=None) -> tuple[dict, np.ndarray]:
        basis = basis_family(seed, int(n))
        if N > 0:
            basis = [apply(op, f, N) for f in basis]
        fit = simplex_fit(basis, target, mu, max_iter=max_iter,
                          quad_nodes=quad_nodes, init=init, restarts=restarts)
        root = float(np.sqrt(n))
        row = {
            "n": int(n),
            "N": int(N),
            "residual": fit.residual,
            "bound_reference": norm**N * (1.0 + np.sqrt(2.0 * mass)) / root,
            "bound_displayed": norm ** (N / 2.0) * (1.0 + np.sqrt(2.0 * mass)) / root,
            "bound_proof_final": (1.0 + np.sqrt(2.0 * mass)) / root,
        }
        return row, fit.coefficients

    # warm-start each fit from the previous coefficients when n increases
    # (prefix-nested draws make the earlier optimum feasible for every later n)
    ns = [int(n) for n in n_values]
    nested = all(a < b for a, b in zip(ns, ns[1:]))
    rows = []
    coeffs = None
    for n in ns:
        row, coeffs = one(n, init=coeffs if nested else None)
        rows.append(row)
    log_n = np.log([row["n"] for row in rows])
    log_r = np.log([max(row["residual"], 1e-300) for row in rows])
    slope = float(np.polyfit(log_n, log_r, 1)[0]) if len(rows) > 1 else 0.0
    return RateSweepTable(tuple(rows), slope, norm)


def kappa_growth_check(sigma: ActivationSpec, b: float, mu: Measure1D,
                       N_values: Sequence[int]) -> dict:
    """Tabulate norm^N for the pushforward norm; needs norm > 1 to certify
    geometric growth of the iterated operator."""
    push = pushforward_density_norm(sigma, b, mu)
    if not push.well_defined:
        raise PreconditionError("pushforward density unbounded")
    if push.norm_value <= 1.0:
        raise VerificationError(
            "pushforward norm <= 1 contradicts the growth requirement",
            {"norm_value": push.norm_value},
        )
    rows = [{"N": int(n), "value": push.norm_value ** int(n)} for n in N_values]
    values = [r["value"] for r in rows]
    ns = [r["N"] for r in rows]
    for (n0, v0), (n1, v1) in zip(zip(ns, values), zip(ns[1:], values[1:])):
        if n1 > n0 and not v1 > v0:
            raise VerificationError(
                "growth table not strictly increasing",
                {"N": n1, "value": v1, "prev": v0},
            )
    return {"norm_value": push.norm_value, "rows": rows}
