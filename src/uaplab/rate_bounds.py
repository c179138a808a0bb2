"""Convex-hull approximation rates for iterated-composition bases.

A rate sweep fits a target by convex combinations of indicator trees
composed with S^N, in L1 on the measure's equal-mass quadrature nodes:
the trees and the target are sampled at the nodes, sorted by their images
under S^N, runs of equal rows (the piecewise-constant trees make many)
merge into weighted cells, and ``simplex_fit`` solves the linear program
min sum w|B a - t| over the simplex on those cells to optimality.  It is
the L1(mu) problem only up to that quadrature.  The solver is a numpy
Mehrotra predictor-corrector whose Newton steps reduce to an n x n system
in the coefficient dimension (the Frisch-Newton reduction of Portnoy and
Koenker, Statistical Science 1997).  Each iteration factors that system
once by Cholesky and inverts the factor; the predictor and the corrector
then solve by matrix products alone.  The LP is solved on a growing set of
columns (column generation), each solve after the first starting warm
from the last coefficients and dual, and a fit is optimal when a
weak-duality lower bound over every column certifies its residual,
rounding included, to 1e-12 relative.  A rate sweep merges the nodes into
one table of cells for all its trees and fits each row on a prefix of the
table's columns, as one column generation along its n ladder: each row
starts from the column set, coefficients and per-cell dual the previous
row ended in, and is done without a solve when they already certify it.
A solve that stops short of that raises ``LPSolveError`` with its status,
bracket, iterations, cells and columns.
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
from .function_space import GridFunction, Measure1D
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
_LP_MAX_ITER = 100
_LP_STEP = 0.99995  # fraction of the step to the boundary that is taken
_START_COLUMNS = 8  # best single columns in the first restricted column set
_ADD_COLUMNS = 4  # most violated columns added per restricted solve
_UNIT = 2.0 ** -53  # unit roundoff of float64
_WARM_BLEND = 0.5  # weight of the cold start in a warm start


class SimplexFit(NamedTuple):
    """An optimal fit, its certified bracket [lower_bound, lower_bound +
    gap], and the state a fit of more columns on the same cells starts
    from: the final column set, the coefficients and the dual per cell."""

    coefficients: np.ndarray
    residual: float
    iterations: int  # Newton steps, summed over the restricted solves
    gap: float  # upper - lower_bound: the residual and its rounding term
    cells: int  # rows of the cell table it was fitted on
    lower_bound: float  # weak-duality bound on the optimum over every column
    column_set: np.ndarray  # indices of the final restricted solve's columns
    dual: np.ndarray  # its clipped dual y_i on each cell, |y_i| <= w counts_i

    @property
    def columns(self) -> int:  # columns of the final restricted solve
        return len(self.column_set)


def _cell_starts(B: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Mask of the rows of [B | t] that differ from the row before.  Each
    run of equal rows merges into one cell of their summed weight: equal
    rows have equal residuals, so the L1 objective is kept exactly."""
    return np.r_[True, (t[1:] != t[:-1]) | np.any(B[1:] != B[:-1], axis=1)]


def _dual_bound(B: np.ndarray, t: np.ndarray, y: np.ndarray, m: int,
                bmax: float):
    """(lower bound, B^T y) of min sum w|B a - t| over the simplex, for a
    dual point y with |y_i| <= w_i.

    Weak duality of the L1 fitting LP (Charnes, Cooper & Ferguson 1955):
    sum w|B a - t| >= y.t - y^T B a >= y.t - max_j (B^T y)_j for every a on
    the simplex.  The bound is lowered by
    gamma_m (sum |y_i t_i| + bmax sum |y_i|), which covers the rounding of
    dot products of at most m terms with |B| <= bmax (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 3.1)."""
    gamma = m * _UNIT / (1.0 - m * _UNIT)
    price = B.T @ y
    ay = np.abs(y)
    err = gamma * (ay @ np.abs(t) + bmax * np.sum(ay))
    return float(y @ t - np.max(price) - err), price


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


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {a >= 0, sum(a) = 1}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.flatnonzero(u > css / np.arange(1, len(u) + 1))[-1]
    return np.maximum(v - css[k] / (k + 1), 0.0)


def _lp_start(B: np.ndarray, t: np.ndarray, wn: np.ndarray, a: np.ndarray,
              y: np.ndarray, beta: float):
    """The interior point (x, y, y0, z) ``_l1_simplex_lp`` starts from, for
    the weights wn that sum to 1: a point a of the simplex and a dual y
    with |y| <= wn, blended with the uniform a and y = 0 by beta in (0, 1].
    The coefficients are (1 - beta) a + beta / n, p and q are
    max(+-(B a - t), 0) + beta, y is scaled by 1 - beta, y0 is
    -max(B^T y) - beta, and the slacks are s = -(B^T y + y0) >= beta and
    wn +- y >= beta wn.  So both sides are strictly feasible, and their
    equality residuals are rounding only.  beta = 1 is the cold start."""
    n = B.shape[1]
    a = (1.0 - beta) * a + beta / n
    r = B @ a - t
    y = (1.0 - beta) * y
    price = B.T @ y
    y0 = -float(np.max(price)) - beta
    # primal x = (a, p, q) and dual slacks z = (s, zp, zq), each stacked so
    # that a step length is one ratio test per side
    x = np.concatenate([a, np.maximum(r, 0.0) + beta,
                        np.maximum(-r, 0.0) + beta])
    z = np.concatenate([-(price + y0), wn + y, wn - y])
    return x, y, y0, z


def _l1_simplex_lp(B: np.ndarray, t: np.ndarray, w: np.ndarray, m_all: int,
                   bmax: float, start: Optional[tuple] = None):
    """min sum w|B a - t| over the simplex, by Mehrotra predictor-corrector.

    Primal (a, p, q) >= 0 with B a - p + q = t and sum(a) = 1; dual (y, y0)
    with slacks s = -(B^T y + y0) >= 0, zp = w + y >= 0 and zq = w - y >= 0.
    The start (``_lp_start``) is strictly feasible on both sides: from the
    uniform a and y = 0, or, given ``start`` = (a, y) with a on the
    simplex and |y| <= w, from that point blended half way (_WARM_BLEND)
    with the uniform one.  Each Newton step reduces to the
    n x n matrix B^T diag(1/theta) B + diag(s/a), bordered by the simplex
    row; the border is folded in as rho * 1 1^T, which keeps the matrix
    definite along the one direction only the simplex row fixes.  The
    matrix is formed as Bs^T Bs with Bs = diag(theta)^-1/2 B, factored once
    per iteration by Cholesky after a diagonal scaling, and the factor is
    inverted once, so that each solve is two matrix products.  Where the
    optimum is not unique, the matrix becomes singular to rounding along
    the face of optima; a factorization that fails is tried once more with
    the unit diagonal lifted by n u.  The predictor
    solves for its right side and for M^-1 1 together, the corrector
    reuses M^-1 1, and each step length is one ratio test over the stacked
    primal (a, p, q) and one over the stacked slacks (s, zp, zq).

    The iterations run on the weights scaled to sum 1.  Every iterate is
    checked by its certified bracket: the residual of a projected onto the
    simplex with its rounding term (``_primal_bound``), and the
    ``_dual_bound`` of y scaled back to w and clipped to |y| <= w.  The
    rounding terms are sized by m_all and bmax, the cell count and the
    largest |entry| of the full problem that B restricts to some columns,
    so that the bounds match the full problem's bounds over those columns.
    Both sides are feasible by construction, so no infeasibility tolerance
    enters: the solve stops when upper - lower <= _LP_TOL (1 + residual).
    Returns (a, y, status, gap, iterations) with that projected a and
    clipped y, gap = upper - lower, and status "optimal",
    "iteration_limit" or "numerical_failure".
    """
    m, n = B.shape
    mass = float(np.sum(w))
    wn = w / mass
    if start is None:
        x, y, y0, z = _lp_start(B, t, wn, np.zeros(n), np.zeros(m), 1.0)
    else:
        x, y, y0, z = _lp_start(B, t, wn, start[0], start[1] / mass,
                                _WARM_BLEND)
    ones = np.ones(n)

    def longest(v, dv):  # the largest step <= 1 that keeps v + step dv >= 0
        return 1.0 / max(1.0, float(np.max(-dv / v)))

    for it in range(_LP_MAX_ITER + 1):
        a, p, q = x[:n], x[n:n + m], x[n + m:]
        s, zp, zq = z[:n], z[n:n + m], z[n + m:]
        a_on = _project_simplex(a)
        y_on = np.clip(y * mass, -w, w)
        residual, upper = _primal_bound(B, t, w, a_on, m_all)
        gap = upper - _dual_bound(B, t, y_on, m_all, bmax)[0]
        if gap <= _LP_TOL * (1.0 + residual):
            return a_on, y_on, "optimal", gap, it
        if it == _LP_MAX_ITER:
            return a_on, y_on, "iteration_limit", gap, it
        rb = t - B @ a + p - q
        r0 = 1.0 - np.sum(a)
        ra = -(B.T @ y + y0 + s)
        rp = wn + y - zp
        rq = wn - y - zq
        theta = p / zp + q / zq
        Bs = B / np.sqrt(theta)[:, None]
        M = Bs.T @ Bs
        M[np.diag_indices(n)] += s / a
        rho = 1.0 / np.sum(1.0 / np.diag(M))
        M += rho
        d = 1.0 / np.sqrt(np.diag(M))
        scaled = M * d[:, None] * d
        try:
            chol = np.linalg.cholesky(scaled)
        except np.linalg.LinAlgError:
            # near a face of optima the matrix is singular to rounding
            # along the face: lift its unit diagonal by n u and factor again
            scaled[np.diag_indices(n)] += n * _UNIT
            try:
                chol = np.linalg.cholesky(scaled)
            except np.linalg.LinAlgError:
                return a_on, y_on, "numerical_failure", gap, it
        inverse = np.linalg.inv(chol)

        def solve(*columns):  # M^-1 c for each column c
            rhs = d[:, None] * np.column_stack(columns)
            return (d[:, None] * (inverse.T @ (inverse @ rhs))).T

        def reduced(rc):
            """The pair (g, rhs) of the Newton step for complementarity
            right side rc: M da = rhs + dy0 * 1 and dy = (g - B da) / theta."""
            g = rb + (rc[n:n + m] - p * rp) / zp - (rc[n + m:] - q * rq) / zq
            return g, B.T @ (g / theta) + rc[:n] / a - ra + rho * r0

        def newton(rc, g, u, v):
            """Direction (dx, dy, dy0, dz) for complementarity right side rc,
            given u = M^-1 rhs and v = M^-1 1."""
            dy0 = (r0 - np.sum(u)) / np.sum(v)
            da = u + dy0 * v
            dy = (g - B @ da) / theta
            dz = np.concatenate([(rc[:n] - s * da) / a, rp + dy, rq - dy])
            dx = np.concatenate([da, (rc[n:] - x[n:] * dz[n:]) / z[n:]])
            return dx, dy, dy0, dz

        # the predictor solves for 1 next to its right side, and the
        # corrector reuses that column
        mu = (x @ z) / (n + 2 * m)
        rc = -x * z
        g, rhs = reduced(rc)
        u, v = solve(rhs, ones)
        dx, _, _, dz = newton(rc, g, u, v)
        mu_aff = ((x + longest(x, dx) * dx) @ (z + longest(z, dz) * dz)
                  / (n + 2 * m))
        rc = (mu_aff / mu) ** 3 * mu - x * z - dx * dz
        g, rhs = reduced(rc)
        (u,) = solve(rhs)
        dx, dy, dy0, dz = newton(rc, g, u, v)
        ap, ad = _LP_STEP * longest(x, dx), _LP_STEP * longest(z, dz)
        x = x + ap * dx
        y, y0, z = y + ad * dy, y0 + ad * dy0, z + ad * dz


def simplex_fit(Bc: np.ndarray, tc: np.ndarray, counts: np.ndarray,
                w: float, carried: Optional[SimplexFit] = None) -> SimplexFit:
    """Best convex combination of the columns of Bc in L1 on the cells: the
    rows Bc and target values tc of runs of ``counts`` nodes with equal
    rows, each node of weight w (a rate sweep's ``_sweep_cells``, or a
    prefix of its columns).  The linear program
    min sum w counts |Bc a - tc| over the simplex is solved by a primal-dual
    interior point (``_l1_simplex_lp``) and column generation (Dantzig &
    Wolfe, Operations Research 1960).

    The LP is solved on a column set S only, on the coarser cells merged
    over S: at first the _START_COLUMNS of smallest single-column residual.
    Each coarse cell's dual is spread over its cells by weight, so that
    |y_i| <= w_i holds cell by cell, and ``_dual_bound`` of that y bounds
    the optimum over every column.  When the upper end (``_primal_bound``)
    less that bound is <= _LP_TOL (1 + residual) the fit is done; otherwise
    the _ADD_COLUMNS columns of largest B^T y above S's maximum join S, or
    every column when none is above it, and S is solved again.  At worst S
    grows to every column.  Each solve after the first starts warm from
    the last coefficients and dual (the dual summed over the coarse cells
    of the new S); a warm solve that does not end "optimal" is solved
    again from the cold start, and then raises ``LPSolveError``.

    ``carried``, the fit of a prefix of Bc's columns on the same cells,
    starts S instead: its coefficients padded with zeros (feasible) and its
    dual (a dual point) are checked first, so a fit they certify takes no
    Newton step; otherwise S is the carried set and its most violated
    columns, solved warm from them.

    The coefficients are an interior point projected onto the simplex, the
    residual is evaluated from them on every cell, and the optimum lies in
    [lower_bound, lower_bound + gap], whose upper end is the residual plus
    a bound on its rounding, with gap <= _LP_TOL (1 + residual).
    ``iterations`` sums the Newton steps of the solves, ``column_set`` is
    the last S, and ``dual`` the y of its bound."""
    wc = w * counts
    (m, n), bmax = Bc.shape, float(np.max(np.abs(Bc)))
    chosen = np.zeros(n, dtype=bool)
    coefficients = np.zeros(n)
    if carried is None:
        single = wc @ np.abs(Bc - tc[:, None])
        chosen[np.argsort(single, kind="stable")[:_START_COLUMNS]] = True
        y = None
    else:
        chosen[carried.column_set] = True
        coefficients[:len(carried.coefficients)] = carried.coefficients
        y = carried.dual
    solve = carried is None
    iterations = 0
    while True:
        cols = np.flatnonzero(chosen)
        if solve:  # on S, warm from the last (a, y) when there is one
            first = _cell_starts(Bc[:, cols], tc)
            coarse = np.flatnonzero(first)
            ws = np.add.reduceat(wc, coarse)
            lp = (Bc[np.ix_(coarse, cols)], tc[coarse], ws, m, bmax)
            warm = None if y is None else (coefficients[cols],
                                           np.add.reduceat(y, coarse))
            a, yc, status, gap, it = _l1_simplex_lp(*lp, warm)
            iterations += it
            if status != "optimal" and warm is not None:
                a, yc, status, gap, it = _l1_simplex_lp(*lp)
                iterations += it
            if status != "optimal":
                raise LPSolveError(status, gap, iterations, m, len(cols))
            coefficients[cols] = a
            owner = np.cumsum(first) - 1
            y = np.clip(yc[owner] * (wc / ws[owner]), -wc, wc)
        lower, price = _dual_bound(Bc, tc, y, m, bmax)
        residual, upper = _primal_bound(Bc[:, cols], tc, wc,
                                        coefficients[cols], m)
        if upper - lower <= _LP_TOL * (1.0 + residual) or len(cols) == n:
            break
        over = np.flatnonzero(price > np.max(price[cols]))
        top = over[np.argsort(-price[over], kind="stable")[:_ADD_COLUMNS]]
        chosen[top if top.size else slice(None)] = True
        solve = True
    return SimplexFit(coefficients, residual, iterations, upper - lower, m,
                      lower, cols, y)


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
    ``PreconditionError``.  The quadrature nodes are pushed through S^N
    once, and S^N(nodes) is sorted together with the target's values there
    by a stable argsort: every node weighs the same, so the LP is the same
    problem in any node order, and an already sorted S^N(nodes) keeps its
    order.  One table of cells serves every row (``_sweep_cells``): the
    nodes' rows of all the drawn trees, ``apply(op, f_j, N)`` bit for bit,
    sampled only where a tree's run of nodes or the target can change, with
    equal neighbours merged.  Each row fits the table's first n columns by
    ``simplex_fit`` (an interior-point LP solved to optimality on a growing
    column set).  Rows run in the given order, as one column generation:
    while n increases, a row starts from the column set, coefficients and
    per-cell dual the previous row ended in (``simplex_fit``'s
    ``carried``), and is done without a Newton step when they certify it,
    or else solved warm from them; the first row and a row whose n does not
    grow start from scratch.  The previous row's coefficients, padded with
    zeros, are feasible, and a row reports the smaller of the two
    residuals, so that tolerance-level differences between equal optima
    cannot make the table rise.  Each row carries ``status`` "optimal" (any
    other outcome raises ``LPSolveError``), ``lower_bound`` (a
    weak-duality bound on the row's optimum), ``gap`` (the optimum lies in
    [lower_bound, lower_bound + gap], whose upper end is the residual plus
    a bound on its rounding; at most 1e-12 (1 + residual)), ``iterations``
    (Newton steps summed over the restricted solves, 0 for a row the
    carried state certifies), ``cells`` (the count of cells its n columns
    alone merge the nodes into), ``columns`` (the size of the last
    restricted column set), and ``degenerate`` when its residual is no
    better than predicting 0 (>= (1 - 1e-9) * ||target||_L1(mu)).
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
    t = target.sample(nodes[:, None])[:, 0]
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
