"""Convex-hull approximation rates for iterated-composition bases.

Simplex-constrained L1 fitting is exact: the basis and target are sampled
at the measure's equal-mass quadrature nodes, runs of equal rows (the
piecewise-constant trees make many) merge into weighted cells, and the
linear program min sum w|B a - t| over the simplex is solved by a numpy
Mehrotra predictor-corrector whose Newton steps reduce to an n x n Cholesky
solve in the coefficient dimension (the Frisch-Newton reduction of Portnoy
and Koenker, Statistical Science 1997).  A solve that stops short of
optimal raises ``LPSolveError`` with its status, gap, iterations and cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .activations import ActivationSpec
from .errors import (
    DimensionMismatchError,
    LPSolveError,
    PreconditionError,
    VerificationError,
)
from .function_space import GridFunction, Measure1D
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

PUSHFORWARD_POINTS = 200_001  # grid points of the density-over-slope maximum


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


def pushforward_density_norm(sigma: ActivationSpec, b: float,
                             mu: Measure1D) -> PushforwardReport:
    """Sup of the density of the pushforward of mu under x -> sigma(x + b).

    At y = S(x) the pushforward density is density(x) / S'(x), so the norm is
    the grid maximum of density(x)/sigma'(x+b); the map is well-defined on L1
    exactly when the derivative is bounded away from zero (monotone
    criterion).  A flat stretch (e.g. the rectifier's zero branch) is
    reported with its witness interval.
    """
    b = float(b)
    q = mu.quantile(np.asarray([1e-9, 1.0 - 1e-9]))
    lo = float(q[0]) - abs(b) - 1.0
    hi = float(q[1]) + abs(b) + 1.0
    xs = [np.linspace(lo, hi, PUSHFORWARD_POINTS)]
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
# exact L1 fits over the simplex

_LP_TOL = 1e-12  # relative duality gap and infeasibility accepted as optimal
_LP_MAX_ITER = 100
_LP_STEP = 0.99995  # fraction of the step to the boundary that is taken


@dataclass(frozen=True)
class SimplexFit:
    coefficients: np.ndarray
    basis_ids: tuple
    residual: float
    iterations: int
    status: str  # always "optimal": any other outcome raises LPSolveError
    gap: float  # duality gap of the final interior point, in residual units
    cells: int  # quadrature rows left after merging equal ones


def _merge_rows(B: np.ndarray, t: np.ndarray, w: float):
    """Merge runs of equal rows of [B | t] into cells, summing their
    weights: equal rows have equal residuals, so the L1 objective is kept
    exactly."""
    new = (t[1:] != t[:-1]) | np.any(B[1:] != B[:-1], axis=1)
    starts = np.flatnonzero(np.r_[True, new])
    return B[starts], t[starts], w * np.diff(np.r_[starts, len(t)])


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {a >= 0, sum(a) = 1}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.flatnonzero(u > css / np.arange(1, len(u) + 1))[-1]
    return np.maximum(v - css[k] / (k + 1), 0.0)


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


def _l1_simplex_lp(B: np.ndarray, t: np.ndarray, w: np.ndarray):
    """min sum w|B a - t| over the simplex, by Mehrotra predictor-corrector.

    Primal (a, p, q) >= 0 with B a - p + q = t and sum(a) = 1; dual (y, y0)
    with slacks s = -(B^T y + y0) >= 0, zp = w + y >= 0 and zq = w - y >= 0.
    The start is feasible on both sides.  Each Newton step reduces to the
    n x n matrix B^T diag(1/theta) B + diag(s/a), bordered by the simplex
    row; the border is folded in as rho * 1 1^T, which keeps the matrix
    definite along the one direction only the simplex row fixes, and the
    matrix is factored by Cholesky after a diagonal scaling.  Returns
    (a, status, gap, iterations); status is "optimal", "iteration_limit" or
    "numerical_failure".
    """
    m, n = B.shape
    mass = float(np.sum(w))
    w = w / mass
    a = np.full(n, 1.0 / n)
    r = B @ a - t
    p, q = np.maximum(r, 0.0) + 1.0, np.maximum(-r, 0.0) + 1.0
    y, y0 = np.zeros(m), -1.0
    s, zp, zq = np.ones(n), w.copy(), w.copy()
    t_scale = 1.0 + float(np.max(np.abs(t)))

    def longest(x, dx):
        neg = dx < 0
        return float(np.min(-x[neg] / dx[neg])) if np.any(neg) else np.inf

    def steps(d):
        da, dp, dq, _, _, ds, dzp, dzq = d
        return (min(1.0, longest(a, da), longest(p, dp), longest(q, dq)),
                min(1.0, longest(s, ds), longest(zp, dzp), longest(zq, dzq)))

    for it in range(_LP_MAX_ITER + 1):
        rb = t - B @ a + p - q
        r0 = 1.0 - np.sum(a)
        ra = -(B.T @ y + y0 + s)
        rp = w + y - zp
        rq = w - y - zq
        primal = float(w @ (p + q))
        gap = primal - float(t @ y + y0)
        infeas = max(float(np.max(np.abs(rb))) / t_scale, abs(r0),
                     *(float(np.max(np.abs(v))) for v in (ra, rp, rq)))
        if abs(gap) <= _LP_TOL * (1.0 + primal) and infeas <= _LP_TOL:
            return a, "optimal", gap * mass, it
        if it == _LP_MAX_ITER:
            return a, "iteration_limit", gap * mass, it
        theta = p / zp + q / zq
        M = B.T @ (B / theta[:, None])
        M[np.diag_indices(n)] += s / a
        rho = 1.0 / np.sum(1.0 / np.diag(M))
        M += rho
        d = 1.0 / np.sqrt(np.diag(M))
        try:
            chol = np.linalg.cholesky(M * d[:, None] * d)
        except np.linalg.LinAlgError:
            return a, "numerical_failure", gap * mass, it

        def newton(rca, rcp, rcq):
            g = rb + (rcp - p * rp) / zp - (rcq - q * rq) / zq
            rhs = B.T @ (g / theta) + rca / a - ra + rho * r0
            u, v = (d[:, None] * _cholesky_solve(
                chol, d[:, None] * np.column_stack([rhs, np.ones(n)]))).T
            dy0 = (r0 - np.sum(u)) / np.sum(v)
            da = u + dy0 * v
            dy = (g - B @ da) / theta
            dzp, dzq = rp + dy, rq - dy
            return (da, (rcp - p * dzp) / zp, (rcq - q * dzq) / zq,
                    dy, dy0, (rca - s * da) / a, dzp, dzq)

        mu = (a @ s + p @ zp + q @ zq) / (n + 2 * m)
        aff = newton(-a * s, -p * zp, -q * zq)
        ap, ad = steps(aff)
        da, dp, dq, _, _, ds, dzp, dzq = aff
        mu_aff = ((a + ap * da) @ (s + ad * ds) + (p + ap * dp) @ (zp + ad * dzp)
                  + (q + ap * dq) @ (zq + ad * dzq)) / (n + 2 * m)
        target_mu = (mu_aff / mu) ** 3 * mu
        step = newton(target_mu - a * s - da * ds, target_mu - p * zp - dp * dzp,
                      target_mu - q * zq - dq * dzq)
        ap, ad = (min(1.0, _LP_STEP * x) for x in steps(step))
        a, p, q = (x + ap * dx for x, dx in zip((a, p, q), step[:3]))
        y, y0, s, zp, zq = (x + ad * dx for x, dx in zip((y, y0, s, zp, zq), step[3:]))


def simplex_fit(basis: Sequence[GridFunction], target: GridFunction,
                mu: Measure1D, *, quad_nodes: int = 2001) -> SimplexFit:
    """Best convex combination of the basis in L1(mu), solved exactly.

    The basis and target are sampled at the equal-mass quadrature nodes of
    mu; runs of equal rows (piecewise-constant functions on sorted nodes)
    merge into weighted cells, and the linear program
    min sum w|B a - t| over the simplex is solved by a primal-dual interior
    point (``_l1_simplex_lp``).  The returned coefficients are the final
    interior point projected onto the simplex, and the residual is
    evaluated from them on every node.  A solve that does not reach
    status "optimal" raises ``LPSolveError``.
    """
    return _fit_columns(*_sample_columns(basis, target, mu, quad_nodes))


def _sample_columns(basis, target, mu, quad_nodes):
    """The basis as node-by-function columns B, the target t, and the
    uniform node weight w, at the equal-mass quadrature nodes of mu."""
    if len(basis) == 0:
        raise PreconditionError("basis must be nonempty")
    if target.dim_out != 1 or any(f.dim_out != 1 for f in basis):
        raise DimensionMismatchError("simplex fitting handles scalar outputs")
    nodes, w = mu.nodes(quad_nodes)
    pts = nodes[:, None]
    B = np.column_stack([f.sample(pts)[:, 0] for f in basis])
    return B, target.sample(pts)[:, 0], w


def _fit_columns(B: np.ndarray, t: np.ndarray, w: float) -> SimplexFit:
    """``simplex_fit`` on sampled columns (``_sample_columns``)."""
    Bc, tc, wc = _merge_rows(B, t, w)
    a, status, gap, iterations = _l1_simplex_lp(Bc, tc, wc)
    if status != "optimal":
        raise LPSolveError(status, gap, iterations, len(tc))
    a = _project_simplex(a)
    residual = float(w * np.sum(np.abs(B @ a - t)))
    return SimplexFit(a, tuple(range(B.shape[1])), residual, iterations,
                      status, gap, len(tc))


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
    rows: tuple  # dicts: n, N, residual, the three bounds, LP diagnostics
    slope_estimate: float
    pushforward_norm: float
    degenerate: bool  # every row no better than predicting 0

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

    The family and its N-fold compositions are built and sampled once, at
    the largest n, and each row fits a prefix of the sampled columns
    exactly (as ``simplex_fit``: equal quadrature rows merged into cells,
    then an interior-point LP).  Rows run in the given order; while n
    increases the previous row's coefficients, padded with zeros, are
    feasible, and a row reports the smaller of the two residuals, so that
    tolerance-level differences between equal optima cannot make the table
    rise.  Each row carries the LP's status, gap, iterations and cell
    count, and ``degenerate`` when its residual is no better than
    predicting 0 (>= (1 - 1e-9) * ||target||_L1(mu)).
    ``max_iter`` and ``restarts`` are accepted for old configurations and
    ignored.
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

    ns = [int(n) for n in n_values]
    if not ns or min(ns) < 1:
        raise PreconditionError(f"n values must be positive, got {ns}")
    basis = basis_family(seed, max(ns))
    if N > 0:
        basis = [apply(op, f, N) for f in basis]
    B, t, w = _sample_columns(basis, target, mu, quad_nodes)
    target_norm = float(w * np.sum(np.abs(t)))
    rows = []
    for n in ns:
        fit = _fit_columns(B[:, :n], t, w)
        residual = fit.residual
        if rows and rows[-1]["n"] < n:
            residual = min(residual, rows[-1]["residual"])
        root = float(np.sqrt(n))
        rows.append({
            "n": n,
            "N": int(N),
            "residual": residual,
            "bound_reference": norm**N * (1.0 + np.sqrt(2.0 * mass)) / root,
            "bound_displayed": norm ** (N / 2.0) * (1.0 + np.sqrt(2.0 * mass)) / root,
            "bound_proof_final": (1.0 + np.sqrt(2.0 * mass)) / root,
            "status": fit.status,
            "gap": fit.gap,
            "iterations": fit.iterations,
            "cells": fit.cells,
            "degenerate": residual >= (1.0 - 1e-9) * target_norm,
        })
    log_n = np.log([row["n"] for row in rows])
    log_r = np.log([max(row["residual"], 1e-300) for row in rows])
    slope = float(np.polyfit(log_n, log_r, 1)[0]) if len(rows) > 1 else 0.0
    return RateSweepTable(tuple(rows), slope, norm,
                          all(row["degenerate"] for row in rows))


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
