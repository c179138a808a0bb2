"""Convex-hull approximation rates for iterated-composition bases.

A rate sweep fits a target by convex combinations of indicator trees
composed with S^N, in L1 on the measure's equal-mass quadrature nodes:
the trees and the target are sampled at the nodes, sorted by their images
under S^N, runs of equal rows (the piecewise-constant trees make many)
merge into weighted cells, and ``simplex_fit`` solves the linear program
min sum w|B a - t| over the simplex on those cells to optimality.  It is
the L1(mu) problem only up to that quadrature.  The solver is one primal
simplex on the whole cell table, in the condensed form of Barrodale and
Roberts (SIAM J. Numer. Anal. 1973) with the sum-to-one row: a basis is
the columns in the fit, the cells it interpolates and the sign of every
other cell's residual, and each pivot inverts the small basis matrix
afresh.  A fit ends on a vertex, certified by its weak-duality bracket,
rounding included, to 1e-12 relative.  A rate sweep merges the nodes into
one table of cells for all its trees and fits each row on a prefix of the
table's columns: while n grows, each row starts from the basis the
previous row ended on, and takes no pivot when that basis is still
optimal.  A fit that stops short of a certified optimum raises
``LPSolveError`` with its status, bracket, pivots, cells and columns.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels as K
from .activations import ActivationSpec, Branch, _affine_params, _inside, _zeros
from .errors import (
    DimensionMismatchError,
    LPSolveError,
    PreconditionError,
    UnboundedDensityError,
)
from .function_space import GridFunction, Measure1D, _ensure_finite
from .network import TreeFunction

__all__ = [
    "PushforwardReport",
    "SimplexFit",
    "pushforward_density_norm",
    "simplex_fit",
    "rate_sweep",
    "trees_basis_family",
]


# ---------------------------------------------------------------------------
# pushforward density


class PushforwardReport(NamedTuple):
    norm_value: float
    well_defined: bool
    witness_interval: Optional[tuple] = None


def _flat_pieces(branch: Branch) -> list:
    """Intervals (lo, hi) that together hold every z of branch's [lo, hi)
    with sigma'(z) <= 1e-12.  On a power branch sigma' = s*p*|z|**(p-1) + a
    is monotone in |z|, so it crosses 1e-12 only at the zeros +-t of
    s*p*|z|**(p-1) + a - 1e-12; between those, 0 and the branch's ends it
    is flat throughout or nowhere."""
    affine = _affine_params(branch)
    if affine is not None:
        return [(branch.lo, branch.hi)] if affine[0] <= 1e-12 else []
    cuts = sorted({branch.lo, branch.hi, *_zeros(branch, branch.params[2] - 1e-12),
                   *([0.0] if branch.lo < 0.0 < branch.hi else [])})
    with np.errstate(divide="ignore", over="ignore"):  # at 0 when p < 1, far out
        return [*((z, z) for z in cuts[:-1]
                  if np.isfinite(z) and branch.derivative(z) <= 1e-12),
                *((lo, hi) for lo, hi in zip(cuts, cuts[1:])
                  if branch.derivative(_inside(lo, hi)) <= 1e-12)]


def _least_slope(branch: Branch) -> float:
    """The infimum of sigma' on branch's [lo, hi): the slope of an affine
    branch; on a power branch, monotone in |z|, the least of sigma' at the
    ends (its limits at +-inf) and at 0."""
    affine = _affine_params(branch)
    if affine is not None:
        return float(affine[0])
    at = [branch.lo, branch.hi, *([0.0] if branch.lo < 0.0 < branch.hi else [])]
    with np.errstate(divide="ignore", over="ignore"):
        return float(np.min(branch.derivative(np.asarray(at))))


def pushforward_density_norm(sigma: ActivationSpec, b: float,
                             mu: Measure1D) -> PushforwardReport:
    """Sup of the density of the pushforward of mu under x -> sigma(x + b).

    At y = S(x) the pushforward density is density(x) / S'(x).  The map is
    well-defined on L1 exactly when the derivative is bounded away from
    zero (monotone criterion): where sigma'(x + b) <= 1e-12 for some x on
    the line, the report is not well-defined, and its witness interval is
    the smallest one holding every such x (an end may be infinite, as the
    rectifier's zero branch gives).  Otherwise the norm is the largest, over
    sigma's branches [e_j, e_j+1), of mu.density_sup on [e_j - b, e_j+1 - b]
    over the infimum of sigma' on the branch: exact on an affine branch, an
    upper bound on a power branch, and evaluated on no grid.
    """
    b = float(b)
    flat = [piece for branch in sigma.branches for piece in _flat_pieces(branch)]
    if flat:
        return PushforwardReport(float("inf"), False,
                                 (min(lo for lo, _ in flat) - b,
                                  max(hi for _, hi in flat) - b))
    norm = max(mu.density_sup(branch.lo - b, branch.hi - b) / _least_slope(branch)
               for branch in sigma.branches)
    return PushforwardReport(norm, True)


# ---------------------------------------------------------------------------
# L1 fits over the simplex, exact on the merged quadrature cells

_LP_TOL = 1e-12  # certified bracket accepted, relative to 1 + residual
_LP_MAX_ITER = 5000  # pivots per fit
_ZERO = 1e-13  # a residual |r_i| <= _ZERO (1 + |t_i|) counts as zero
_FLAT = 1e-11  # a cell whose residual moves <= _FLAT max|B| cannot stop a step
_TINY = 1e-14  # prices and gains within _TINY (1 + objective) of 0 count as 0
_BLAND = 20  # consecutive stalled pivots before Bland's lowest-index rule
_UNIT = 2.0 ** -53  # unit roundoff of float64


class SimplexFit(NamedTuple):
    """An optimal fit, its certified bracket [lower_bound, lower_bound +
    gap], and the basis it ended on, from which a fit of more columns on the
    same cells starts: the columns J of a_J > 0, the interpolated cells I
    (residual 0, |I| = |J| - 1) and the sign of each other cell's residual."""

    coefficients: np.ndarray
    residual: float
    iterations: int  # simplex pivots
    gap: float  # upper - lower_bound: the residual and its rounding term
    cells: int  # rows of the cell table it was fitted on
    lower_bound: float  # weak-duality bound on the optimum over every column
    column_set: np.ndarray  # J, the basis's columns
    dual: np.ndarray  # the clipped dual y_i on each cell, |y_i| <= w counts_i
    interpolated: np.ndarray  # I, the basis's cells of residual 0
    signs: np.ndarray  # s_i = +-1 per cell, the sign of its residual off I

    @property
    def columns(self) -> int:  # |J|
        return len(self.column_set)


def _cell_starts(B: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Mask of the rows of [B | t] that differ from the row before.  Each
    run of equal rows merges into one cell of their summed weight: equal
    rows have equal residuals, so the L1 objective is kept exactly."""
    return np.r_[True, (t[1:] != t[:-1]) | np.any(B[1:] != B[:-1], axis=1)]


def _dual_bound(B: np.ndarray, t: np.ndarray, y: np.ndarray, m: int,
                bmax: float) -> float:
    """Lower bound of min sum w|B a - t| over the simplex, for a dual point
    y with |y_i| <= w_i.

    Weak duality of the L1 fitting LP (Charnes, Cooper & Ferguson 1955):
    sum w|B a - t| >= y.t - y^T B a >= y.t - max_j (B^T y)_j for every a on
    the simplex.  The bound is lowered by
    gamma_m (sum |y_i t_i| + bmax sum |y_i|), which covers the rounding of
    dot products of at most m terms with |B| <= bmax (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 3.1)."""
    gamma = m * _UNIT / (1.0 - m * _UNIT)
    ay = np.abs(y)
    err = gamma * (ay @ np.abs(t) + bmax * np.sum(ay))
    return float(y @ t - np.max(B.T @ y) - err)


def _primal_bound(B: np.ndarray, t: np.ndarray, w: np.ndarray,
                  a: np.ndarray, m: int):
    """(residual, upper bound) of min sum w|B a - t| over the simplex, at
    a >= 0 with sum(a) near 1: the computed sum w|B a - t|, and that sum
    plus (gamma_{m+2k+1} + |sum(a) - 1|) sum w (|t| + |B| a), k = len(a).
    The term covers the rounding of B a - t (k + 1 terms) and of the
    weighted sum of at most m terms (Higham 2002, section 3.1, as in
    ``_dual_bound``) and the move of a onto the simplex as a / sum(a), to
    first order in the unit roundoff."""
    k = len(a)
    gamma = (m + 2 * k + 1) * _UNIT / (1.0 - (m + 2 * k + 1) * _UNIT)
    residual = float(w @ np.abs(B @ a - t))
    size = float(w @ (np.abs(t) + np.abs(B) @ a))
    return residual, residual + (gamma + abs(float(np.sum(a)) - 1.0)) * size


def simplex_fit(Bc: np.ndarray, tc: np.ndarray, counts: np.ndarray,
                w: float, carried: Optional[SimplexFit] = None) -> SimplexFit:
    """Best convex combination of the columns of Bc in L1 on the cells: the
    rows Bc and target values tc of runs of ``counts`` nodes with equal
    rows, each node of weight w (a rate sweep's ``_sweep_cells``, or a
    prefix of its columns).  The linear program
    min sum w_i |Bc a - tc|_i over the simplex, w_i = w counts_i, is solved
    by one primal simplex in the condensed form of Barrodale & Roberts
    (SIAM J. Numer. Anal. 1973), with the sum-to-one row.

    A basis is the columns J with a_J > 0, the interpolated cells I of
    residual 0, |I| = |J| - 1, and the sign s_i of every other cell's
    residual.  Its vertex solves [B_IJ; 1^T] a_J = [t_I; 1], and its dual
    is y_i = -w_i s_i off I, with y_I and y0 from
    [B_IJ; 1^T]^T [y_I; y0] = -B_J^T y (y_I = 0 on the right), so that
    (B^T y)_j + y0 = 0 on J.  Each pivot inverts that |J| x |J| matrix
    afresh, prices every column by -(B^T y + y0)_j and every interpolated
    cell by w_i - |y_i|, and enters the most negative price: a column joins
    J, or a cell leaves I with its residual's sign against y_i.  The step
    is Barrodale and Roberts' ratio test: along the edge the objective is
    piecewise linear, and the step passes each residual that changes sign
    (its s_i flips) while the slope stays negative.  It stops at the cell at
    which the slope would turn >= 0, which joins I, or at the first a_j
    that reaches 0, which leaves J.

    Degeneracy: a residual |r_i| <= 1e-13 (1 + |t_i|) counts as zero; a
    cell whose residual moves by |dr_i| <= 1e-11 max|B| per unit step, and
    an a_j that shrinks at a rate within 1e-11 of the step's largest rate,
    cannot stop a step, which keeps the basis matrix invertible (a cell
    whose row of Bc is a row of I's stays out of I); a price above
    -1e-14 (1 + objective) counts as nonnegative; and after _BLAND
    consecutive pivots that each gain <= 1e-14 (1 + objective), the
    entering price is the negative one of lowest index, columns before
    cells (Bland, Math. Oper. Res. 1977), until a pivot gains more.  With
    no negative price the vertex is optimal.

    A cold fit starts at the single column of smallest residual, a vertex.
    ``carried``, the fit of a prefix of Bc's columns on the same cells,
    starts from the basis it ended on, which is a basis of Bc too.

    The vertex is certified: its coefficients clipped at 0 give the
    residual and the bracket's upper end (``_primal_bound``), and its dual
    clipped to |y_i| <= w_i the lower end (``_dual_bound``), so the optimum
    lies in [lower_bound, lower_bound + gap].  A gap that is not at most
    _LP_TOL (1 + residual), NaN included, raises ``LPSolveError``
    ("numerical_failure"), and so does the pivot cap _LP_MAX_ITER
    ("iteration_limit"), each with its bracket, pivots, cells and columns.  ``iterations`` counts the pivots
    and ``dual`` holds the clipped y."""
    wc = w * counts
    (m, n), bmax = Bc.shape, float(np.max(np.abs(Bc)))
    zero, flat = _ZERO * (1.0 + np.abs(tc)), _FLAT * bmax
    if carried is None:
        J = [int(np.argmin(wc @ np.abs(Bc - tc[:, None])))]
        I, s = [], np.where(Bc[:, J[0]] < tc, -1.0, 1.0)
    else:
        J, I = carried.column_set.tolist(), carried.interpolated.tolist()
        s = carried.signs.copy()
    BT = np.ascontiguousarray(Bc.T)  # a basis's columns are a row gather
    on = np.zeros(m, dtype=bool)  # the cells of I
    on[I] = True
    pivots = stalls = 0
    last, status = np.inf, "optimal"
    while True:
        BJ = BT[J].T
        inverse = np.linalg.inv(np.vstack([BJ[I], np.ones(len(J))]))
        a = inverse @ np.append(tc[I], 1.0)
        r = BJ @ a - tc
        r[I] = 0.0
        objective = float(wc @ np.abs(r))
        moved = ~on & (np.abs(r) > zero)  # off zero: s is the residual's sign
        s[moved] = np.sign(r[moved])
        y = -wc * s
        y[I] = 0.0
        dual = -(inverse.T @ (BJ.T @ y))
        y[I], y0 = dual[:-1], dual[-1]
        price = np.concatenate((-(BT @ y + y0), wc[I] - np.abs(y[I])))
        price[J] = 0.0
        tiny = _TINY * (1.0 + objective)
        stalls = stalls + 1 if last - objective <= tiny else 0
        last = objective
        enter = np.flatnonzero(price < -tiny)
        if not enter.size:
            break
        if pivots == _LP_MAX_ITER:
            status = "iteration_limit"
            break
        pivots += 1
        if stalls < _BLAND:
            e = enter[np.argmin(price[enter])]
        else:
            index = np.concatenate((np.arange(n), n + np.array(I, dtype=int)))
            e = enter[np.argmin(index[enter])]
        if e < n:  # column e joins J
            step = -(inverse @ np.append(Bc[I, e], 1.0))
            dr = BJ @ step + BT[e]
        else:  # cell I[k] leaves I
            k = e - n
            s[I[k]] = -np.sign(y[I[k]])
            step = s[I[k]] * inverse[:, k]
            dr = BJ @ step
        # the cells moving toward 0, by the step at which each reaches it,
        # and the slope after passing each: it turns >= 0 at toward[turn]
        toward = np.flatnonzero(~on & (s * dr < -flat))
        near = np.abs(r[toward])
        theta = np.where(near <= zero[toward], 0.0, near) / np.abs(dr[toward])
        order = np.argsort(theta, kind="stable")
        toward, theta = toward[order], np.append(theta[order], np.inf)
        slope = price[e] + 2.0 * np.cumsum(wc[toward] * np.abs(dr[toward]))
        turn = int(np.searchsorted(slope, 0.0))
        # the step at which each a_j that shrinks reaches 0
        reach = np.full(len(J), np.inf)
        np.divide(np.maximum(a, 0.0), -step, out=reach,
                  where=step < -_FLAT * np.max(np.abs(step)))
        q = int(np.argmin(reach))
        if not min(reach[q], theta[turn]) < np.inf:
            status = "numerical_failure"
            break
        if reach[q] <= theta[turn]:  # a_j reaches 0 first: j leaves J
            s[toward[:np.searchsorted(theta, reach[q])]] *= -1.0
            if e < n:
                J[q] = int(e)
            else:
                del J[q]
                on[I.pop(k)] = False
        else:  # the slope turns at cell c: c joins I
            s[toward[:turn]] *= -1.0
            c = int(toward[turn])
            on[c] = True
            if e < n:
                J.append(int(e))
                I.append(c)
            else:
                on[I[k]] = False
                I[k] = c
    coefficients = np.zeros(n)
    coefficients[J] = np.maximum(a, 0.0)
    y = np.clip(y, -wc, wc)
    residual, upper = _primal_bound(BJ, tc, wc, coefficients[J], m)
    lower = _dual_bound(Bc, tc, y, m, bmax)
    if status == "optimal" and not upper - lower <= _LP_TOL * (1.0 + residual):
        status = "numerical_failure"
    if status != "optimal":
        raise LPSolveError(status, upper - lower, pivots, m, len(J))
    return SimplexFit(coefficients, residual, pivots, upper - lower, m, lower,
                      np.array(J), y, np.array(I, dtype=int), s)


# ---------------------------------------------------------------------------
# rate sweep


class TreeFamily(NamedTuple):
    """The (lo, hi) ranges of a ``trees_basis_family``."""

    amp_range: tuple
    left_range: tuple
    len_range: tuple

    def draw(self, seed: int, count: int) -> tuple:
        """(amp, lo, hi): the first ``count`` members' terms as arrays."""
        u = np.random.default_rng(seed).uniform(size=(count, 3))
        (a0, a1), (l0, l1), (n0, n1) = self
        left = l0 + u[:, 1] * (l1 - l0)
        return a0 + u[:, 0] * (a1 - a0), left, left + (n0 + u[:, 2] * (n1 - n0))

    def __call__(self, seed: int, count: int) -> list:
        """The first ``count`` members, built from ``draw``."""
        return [TreeFunction(((a, lo, hi),)).as_gridfunction(name=f"tree{i}")
                for i, (a, lo, hi) in enumerate(zip(*self.draw(seed, count)))]


def trees_basis_family(amp_range=(0.25, 2.0), left_range=(-1.5, 1.0),
                       len_range=(0.25, 2.5)) -> TreeFamily:
    """Family of single-interval indicator trees amp * 1_(left, left +
    length), each of the three drawn uniformly on its range, with
    prefix-consistent draws: for one seed, the first k members agree across
    counts.

    Each range is two finite numbers lo <= hi, and lengths are >= 0; any
    other range raises ``ValueError`` here, before a member is drawn.
    """
    ranges = []
    for name, r in (("amp_range", amp_range), ("left_range", left_range),
                    ("len_range", len_range)):
        ends = [float(v) for v in r]
        if len(ends) != 2 or not np.all(np.isfinite(ends)) or ends[0] > ends[1]:
            raise ValueError(f"{name} must be two finite numbers lo <= hi, "
                             f"got {list(r)}")
        if name == "len_range" and ends[0] < 0:
            raise ValueError(f"len_range must be >= 0, got {list(r)}")
        ranges.append(tuple(ends))
    return TreeFamily(*ranges)


def _sweep_cells(y: np.ndarray, amp: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, t: np.ndarray):
    """The cell table (B, tc, counts) of the trees amp_j * 1_(lo_j, hi_j)
    with finite amplitudes and the target t at the sorted nodes y: each run
    of equal rows of [B | t] merged into one cell (``_cell_starts``) with
    its row, target value and node count, bit for bit as if every node were
    sampled.  y is sorted as ``np.sort`` sorts, NaNs last, so tree j is
    nonzero on the one run of nodes [searchsorted(y, lo_j, "right"),
    searchsorted(y, hi_j, "left")), and rows can change only at node 0,
    at the ends of those runs and where t changes: only these nodes are
    sampled, by ``_kernels.tree_columns``."""
    rows = np.sort(np.r_[0, np.searchsorted(y, lo, "right"),
                         np.searchsorted(y, hi, "left"),
                         np.flatnonzero(t[1:] != t[:-1]) + 1])
    rows = rows[np.r_[True, rows[1:] != rows[:-1]] & (rows < len(y))]
    B, tr = K.tree_columns(amp, lo, hi, y[rows]), t[rows]
    keep = _cell_starts(B, tr)
    return B[keep], tr[keep], np.diff(np.r_[rows[keep], len(y)])


def rate_sweep(basis_family: TreeFamily, target: GridFunction, mu: Measure1D,
               n_values: Sequence[int], N: int, op, seed: int = 0,
               quad_nodes: int = 2001) -> dict:
    """Residual of the best simplex combination of n iterated basis draws,
    as result.json outputs: the rows, the log-log slope of residual against
    n (repeated in each row), the pushforward norm and whether the sweep is
    ``degenerate`` (every row is).

    Emits, next to each residual, three reference curves at depth N: the
    honest Lipschitz propagation norm^N * (1 + sqrt(2*mass))/sqrt(n) (used as
    bound_reference), the displayed norm^{N/2} variant, and the final-chain
    variant with the operator-norm factor dropped; at N=0 all three agree.

    The family's terms are drawn once, at the largest n, as arrays
    (``TreeFamily.draw``), and a non-finite amplitude raises
    ``PreconditionError``.  A target value that is not finite at a node
    raises ``NonFiniteValueError`` with that node.  The quadrature nodes
    are pushed through S^N once, and S^N(nodes) is sorted together with the
    target's values there by a stable argsort: every node weighs the same,
    so the LP is the same problem in any node order, and an already sorted
    S^N(nodes) keeps its order.  One table of cells serves every row (``_sweep_cells``): the
    nodes' rows of all the drawn trees, ``apply(op, f_j, N)`` bit for bit,
    sampled only where a tree's run of nodes or the target can change, with
    equal neighbours merged.  Each row fits the table's first n columns by
    ``simplex_fit`` (a vertex simplex solved to a certified optimum).  Rows
    run in the given order: while n increases, a row starts from the basis
    the previous row ended on (``simplex_fit``'s ``carried``), a basis of
    the longer prefix too, and takes no pivot when it is still optimal;
    the first row and a row whose n does not grow start cold, at the best
    single column.  The previous row's coefficients, padded with
    zeros, are feasible, and a row reports the smaller of the two
    residuals, so that tolerance-level differences between equal optima
    cannot make the table rise.  Each row carries ``status`` "optimal" (any
    other outcome raises ``LPSolveError``), ``lower_bound`` (a
    weak-duality bound on the row's optimum), ``gap`` (the optimum lies in
    [lower_bound, lower_bound + gap], whose upper end is the residual plus
    a bound on its rounding; at most 1e-12 (1 + residual)), ``iterations``
    (the fit's simplex pivots, 0 for a row whose starting basis is
    optimal), ``cells`` (the count of cells its n columns alone merge the
    nodes into), ``columns`` (|J|, the columns of the optimal basis), and
    ``degenerate`` when its residual is no better than predicting 0
    (>= (1 - 1e-9) * ||target||_L1(mu)).
    """
    if N < 0:
        raise PreconditionError(f"depth N must be >= 0, got {N}")
    mass = mu.total_mass
    push = pushforward_density_norm(op.activation, float(op.b[0]), mu)
    if not push.well_defined:
        raise UnboundedDensityError("pushforward density unbounded: operator "
                                    "not well-defined on L1(mu)",
                                    push.witness_interval)
    norm = push.norm_value

    ns = [int(n) for n in n_values]
    if not ns or min(ns) < 1:
        raise PreconditionError(f"n values must be positive, got {ns}")
    if target.dim_out != 1:
        raise DimensionMismatchError("simplex fitting handles scalar outputs")
    if N > 0 and op.dim != 1:
        raise DimensionMismatchError(
            f"operator dimension {op.dim} does not match the trees' dim_in 1")
    amp, lo, hi = basis_family.draw(seed, max(ns))
    if not np.all(np.isfinite(amp)):
        raise PreconditionError("rate sweeps need finite tree amplitudes, got "
                                f"{float(amp[~np.isfinite(amp)][0])}")
    nodes, w = mu.nodes(quad_nodes)
    t = target.sample(nodes[:, None])
    _ensure_finite(t, nodes[:, None], "sampling the rate-sweep target")
    t = t[:, 0]
    target_norm = float(w * np.sum(np.abs(t)))
    y = nodes if N == 0 else op.iterate(nodes, N)[:, 0]
    order = np.argsort(y, kind="stable")
    y, t = y[order], t[order]
    B, tc, counts = _sweep_cells(y, amp, lo, hi, t)
    rows = []
    fit = None
    for n in ns:
        grows = bool(rows) and rows[-1]["n"] < n
        fit = simplex_fit(B[:, :n], tc, counts, w, fit if grows else None)
        residual, upper = fit.residual, fit.lower_bound + fit.gap
        if grows:
            residual = min(residual, rows[-1]["residual"])
            upper = min(upper, rows[-1]["lower_bound"] + rows[-1]["gap"])
        root = float(np.sqrt(n))
        rows.append({
            "n": n,
            "N": int(N),
            "residual": residual,
            "bound_reference": float(norm**N * (1.0 + np.sqrt(2.0 * mass)) / root),
            "bound_displayed": float(norm ** (N / 2.0) * (1.0 + np.sqrt(2.0 * mass))
                                     / root),
            "bound_proof_final": float((1.0 + np.sqrt(2.0 * mass)) / root),
            "status": "optimal",
            "lower_bound": fit.lower_bound,
            "gap": upper - fit.lower_bound,
            "iterations": fit.iterations,
            "cells": int(np.count_nonzero(_cell_starts(B[:, :n], tc))),
            "columns": fit.columns,
            "degenerate": residual >= (1.0 - 1e-9) * target_norm,
        })
    log_n = np.log([row["n"] for row in rows])
    log_r = np.log([max(row["residual"], 1e-300) for row in rows])
    slope = float(np.polyfit(log_n, log_r, 1)[0]) if len(rows) > 1 else 0.0
    for row in rows:
        row["slope_estimate"] = slope
    return {
        "rows": rows,
        "slope_estimate": slope,
        "pushforward_norm": norm,
        "degenerate": all(row["degenerate"] for row in rows),
    }
