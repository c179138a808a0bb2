"""Numpy kernels for tabulated piecewise activations, indicator trees and
one-input shallow nets.

* A piecewise activation is tabulated as ``edges`` (B+1 floats, first -inf,
  last +inf, strictly increasing), ``kinds`` (B int32 codes) and ``par``
  (B x 4 float64 parameter rows).  Codes: 0 = affine ``a*x + b`` with
  ``par = [a, b, _, _]``; 1 = power ``s*sign(x)*|x|**p + a*x + b`` with
  ``par = [s, p, a, b]``.  Branch j covers ``[edges[j], edges[j+1])``.
* Inversion assumes the tabulated map is strictly increasing; callers gate
  on the classification verdict.
* An indicator tree is the sum of ``amp_j * 1_(lo_j, hi_j)`` over its terms.
  ``tree_eval`` evaluates one tree by a prefix sum over its sorted ends;
  ``tree_columns`` evaluates many one-term trees at once, one column each,
  with the same values as ``tree_eval`` on each of them.
* ``knot_table`` turns a one-input shallow net with an all-affine tabulated
  activation into sorted knots with the slope and offset of every cell
  between them; ``knot_eval`` evaluates it with one binary search per point,
  in place of a points x width hidden matrix.
"""

import numpy as np

KIND_AFFINE = 0
KIND_POWER = 1
INVERT_TOL = 1e-14  # relative step at which a power-branch inversion stops


def _branch_index(interior, flat):
    """Number of interior boundaries <= each point, i.e. the index of the
    branch covering it.  This equals ``searchsorted(interior, flat,
    side="right")`` for every non-NaN point (NaN lands on branch 0); one
    vectorized comparison per boundary beats a per-element binary search
    at the few branches a table has."""
    idx = np.zeros(flat.shape, dtype=np.intp)
    for e in interior:
        idx += flat >= e
    return idx


def act_eval(edges, kinds, par, x):
    """Apply the tabulated piecewise map elementwise."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    idx = _branch_index(edges[1:-1], flat)
    out = np.take(par[:, 0], idx)
    out *= flat
    out += np.take(par[:, 1], idx)
    for j in np.flatnonzero(kinds == KIND_POWER):
        m = idx == j
        s, p, a, b = par[j]
        xp = flat[m]
        out[m] = s * np.sign(xp) * np.abs(xp) ** p + a * xp + b
    return out.reshape(x.shape)


def act_deriv(edges, kinds, par, x):
    """Elementwise derivative of the tabulated map (one-sided at breakpoints).
    NaN maps to NaN, whichever branch the index puts it on."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    idx = _branch_index(edges[1:-1], flat)
    out = np.take(par[:, 0], idx)
    for j in np.flatnonzero(kinds == KIND_POWER):
        m = idx == j
        s, p, a, _ = par[j]
        out[m] = s * p * np.abs(flat[m]) ** (p - 1.0) + a
    out[np.isnan(flat)] = np.nan
    return out.reshape(x.shape)


def act_invert(edges, kinds, par, vedges, y):
    """Invert a strictly increasing tabulated map elementwise.

    ``vedges`` holds the map's values at the interior breakpoints.  On a
    power branch x is found to a relative step of ``INVERT_TOL``, once for
    each distinct value.  The map is taken to be onto the real line, so NaN
    and +-inf map to themselves.
    """
    y = np.asarray(y, dtype=np.float64)
    flat = y.ravel()
    idx = _branch_index(vedges, flat)
    # on power-branch points this is meaningless; the loop replaces it
    with np.errstate(divide="ignore", invalid="ignore"):
        out = flat - np.take(par[:, 1], idx)
        out /= np.take(par[:, 0], idx)
    finite = np.isfinite(flat)
    for j in np.flatnonzero(kinds == KIND_POWER):
        m = (idx == j) & finite
        # the inversion is pointwise, so each distinct value (bit pattern)
        # is solved once and its inverse copied to its duplicates (the
        # nested d_ucc cube grids repeat many points)
        bits, first = np.unique(flat[m].view(np.int64), return_inverse=True)
        out[m] = _invert_power(par[j], edges[j], edges[j + 1],
                               bits.view(np.float64))[first]
    out[~finite] = flat[~finite]
    return out.reshape(y.shape)


def _invert_power(p4, lo, hi, y):
    """Solve ``s*sign(x)*|x|**p + a*x + b = y`` for x in ``[lo, hi]``,
    pointwise, by Newton's method safeguarded with bisection.  Each point
    stops on its own converged step, so its inverse does not depend on the
    other points of the call.  An infinite branch end is first pushed
    outward, evaluating the residual only at the points still outside the
    bracket, and each Newton step evaluates only the points not yet
    converged."""
    s, p, a, b = p4

    def resid(x, y):
        return s * np.sign(x) * np.abs(x) ** p + a * x + b - y

    # finite brackets: an infinite branch end steps outward, doubling the
    # step, until the residual at each point changes sign
    anchor = lo if np.isfinite(lo) else (hi if np.isfinite(hi) else 0.0)
    xlo = np.full_like(y, lo if np.isfinite(lo) else anchor - 1.0)
    xhi = np.full_like(y, hi if np.isfinite(hi) else anchor + 1.0)
    for end, sign, bound in ((xlo, -1.0, lo), (xhi, 1.0, hi)):
        if np.isfinite(bound):
            continue
        step = 1.0
        outside = np.flatnonzero(sign * resid(end, y) < 0)
        while outside.size:
            end[outside] += sign * step
            step *= 2.0
            outside = outside[sign * resid(end[outside], y[outside]) < 0]
    # start from the inverse of the dominant term s*sign(x)*|x|**p.  p < 1
    # makes the derivative infinite at 0, and s <= 0 makes the start NaN;
    # such points take a bisection step instead
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.clip(np.sign(y - b) * (np.abs(y - b) / s) ** (1.0 / p), xlo, xhi)
        # the iteration runs on the points not yet converged: live indexes
        # them in x, and xl, yl, xlo, xhi hold their values
        live, xl, yl = np.arange(y.size), x, y
        for _ in range(200):
            r = resid(xl, yl)
            xlo = np.where(r <= 0, xl, xlo)
            xhi = np.where(r >= 0, xl, xhi)
            d = s * p * np.abs(xl) ** (p - 1.0) + a
            nx = xl - r / d
            newton = np.isfinite(d) & (d > 0) & (nx >= xlo) & (nx <= xhi)
            nx = np.where(newton, nx, 0.5 * (xlo + xhi))
            # a NaN step goes on
            going = ~(np.abs(nx - xl) <= INVERT_TOL * np.abs(nx))
            x[live] = nx
            live, xl, yl = live[going], nx[going], yl[going]
            xlo, xhi = xlo[going], xhi[going]
            if not live.size:
                break
    return x


def s_iter(edges, kinds, par, x, b, n):
    """n-fold iteration of x -> sigma•(x + b) on points of shape (N, m)."""
    out = np.array(x, dtype=np.float64, copy=True)
    if out.ndim == 1:
        out = out[:, None]
    for _ in range(int(n)):
        out = act_eval(edges, kinds, par, out + b[None, :])
    return out


def s_inv_iter(edges, kinds, par, vedges, y, b, n):
    """n-fold iteration of y -> sigma^{-1}•(y) - b (inverse of s_iter's step)."""
    out = np.array(y, dtype=np.float64, copy=True)
    if out.ndim == 1:
        out = out[:, None]
    for _ in range(int(n)):
        out = act_invert(edges, kinds, par, vedges, out) - b[None, :]
    return out


def tree_eval(amp, lo, hi, x):
    """Sum of amp_j over terms with lo_j < x < hi_j (open intervals).

    Each term adds amp_j at lo_j and takes it away at hi_j; the result is
    the prefix sum over the ends below x.  ``hi_j <= x`` exactly when
    ``nextafter(hi_j, -inf) < x``, so one strict search serves both ends.
    """
    x = np.asarray(x, dtype=np.float64)
    keep = lo < hi  # an empty interval adds 0 everywhere, also at x == lo
    ends = np.concatenate([lo[keep], np.nextafter(hi[keep], -np.inf)])
    steps = np.concatenate([amp[keep], -amp[keep]])
    order = np.argsort(ends)
    csum = np.concatenate(([0.0], np.cumsum(steps[order])))
    return csum[np.searchsorted(ends[order], x)]


def tree_columns(amp, lo, hi, x):
    """The one-term trees amp_j * 1_(lo_j, hi_j) at the points x, as a
    (len(x), k) matrix.

    For a finite amp_j, column j equals ``tree_eval`` of that one term bit
    for bit: inside the open interval the prefix sum is amp_j itself, past
    hi_j it is amp_j - amp_j = 0.0, and NaN lands past both ends.
    """
    x = np.asarray(x, dtype=np.float64)[:, None]
    return np.where((lo < x) & (x < hi), amp, 0.0)


def knot_table(w, b, c, c0, edges, par):
    """Sorted knots and cellwise slope and offset of the one-input shallow
    net ``x -> c @ sigma(w*x + b) + c0``, for a tabulated sigma whose
    branches are all affine.

    ``w``, ``b`` are the hidden weights and biases (width,), ``c`` the output
    matrix (n, width) and ``c0`` its bias (n,).  Unit j starts on the branch
    it takes as x -> -inf (a unit with w_j = 0 stays on the branch holding
    b_j) and crosses the interior breakpoint e at the knot (e - b_j)/w_j.
    There its slope jumps by c_j*|w_j|*da and its offset by
    sign(w_j)*c_j*(da*b_j + db), where da and db are the jumps of the
    branch's a and b across e.  Returns (knots (K,), slope (K+1, n),
    offset (K+1, n)): with i knots <= x, the net is slope[i]*x + offset[i].
    """
    # the cell sums cancel (units of either sign add to every cell's slope
    # and offset), so the table is built in extended precision and rounded
    # once at the end
    ext = np.longdouble
    w, b, c, c0 = (np.asarray(v, dtype=ext) for v in (w, b, c, c0))
    interior = edges[1:-1].astype(ext)
    a, o = par[:, 0].astype(ext), par[:, 1].astype(ext)
    start = np.where(w > 0, 0, len(a) - 1)
    start[w == 0] = np.searchsorted(interior, b[w == 0], side="right")
    slope0 = c @ (a[start] * w)
    offset0 = c @ (a[start] * b + o[start]) + c0
    moving = w != 0
    wm, bm, cm = w[moving, None], b[moving, None], c[:, moving].T
    da, db = np.diff(a), np.diff(o)
    # one row per (unit, breakpoint) pair, unit-major, scaled by the unit's c_j
    knots = ((interior - bm) / wm).ravel()
    order = np.argsort(knots, kind="stable")
    n = c.shape[0]
    dslope = ((np.abs(wm) * da)[:, :, None] * cm[:, None, :]).reshape(-1, n)
    doffset = ((np.sign(wm) * (bm * da + db))[:, :, None]
               * cm[:, None, :]).reshape(-1, n)
    slope = np.cumsum(np.concatenate([slope0[None, :], dslope[order]]), axis=0)
    offset = np.cumsum(np.concatenate([offset0[None, :], doffset[order]]), axis=0)
    return tuple(v.astype(np.float64) for v in (knots[order], slope, offset))


def knot_eval(knots, slope, offset, x):
    """Evaluate a ``knot_table`` at the points x (N,); returns (N, n).  NaN
    lands past the last knot and stays NaN."""
    x = np.asarray(x, dtype=np.float64)
    i = np.searchsorted(knots, x, side="right")
    return slope[i] * x[:, None] + offset[i]
