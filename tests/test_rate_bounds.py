"""Pushforward densities, exact simplex fits (checked against HiGHS), and
rate sweeps."""

import math
from fractions import Fraction

import numpy as np
import pytest

from uaplab import _kernels as K
from uaplab import activations as act
from uaplab import depth_dynamics as dd
from uaplab import rate_bounds as rb
from uaplab.errors import LPSolveError, PreconditionError
from uaplab.function_space import (
    GridFunction,
    gaussian_measure,
    table_measure,
    uniform_window_measure,
)
from uaplab.network import TreeFunction

PHI_AT = lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi)


class TestPushforward:
    def test_rescaled_leaky_matches_branch_analysis(self, leaky_rescaled, gauss_mu):
        # oracle: worst branch slope 0.1 meets the density at the branch
        # boundary x = -1, giving 10 * phi(-1)
        rep = rb.pushforward_density_norm(leaky_rescaled, 1.0, gauss_mu)
        assert rep.well_defined
        assert rep.norm_value == pytest.approx(10 * PHI_AT(-1.0), rel=1e-4)
        assert rep.norm_value > 1.0

    def test_pure_shift_gives_density_peak(self, gauss_mu):
        shift = act.ActivationSpec(
            "shift", [act.Branch(-math.inf, math.inf, "affine", (1.0, 0.0))]
        )
        rep = rb.pushforward_density_norm(shift, 0.7, gauss_mu)
        assert rep.norm_value == pytest.approx(PHI_AT(0.0), rel=1e-6)
        assert not rep.norm_value > 1.0

    def test_affine_slope_closed_form(self, gauss_mu):
        for slope in (0.5, 2.0):
            aff = act.ActivationSpec(
                "aff", [act.Branch(-math.inf, math.inf, "affine", (slope, 0.3))]
            )
            rep = rb.pushforward_density_norm(aff, 1.0, gauss_mu)
            assert rep.norm_value == pytest.approx(PHI_AT(0.0) / slope, rel=1e-2)

    def test_relu_flat_branch_flagged(self, relu, gauss_mu):
        rep = rb.pushforward_density_norm(relu, 1.0, gauss_mu)
        assert not rep.well_defined
        assert rep.witness_interval is not None
        lo, hi = rep.witness_interval
        assert hi <= -1.0 + 1e-6  # the flat stretch maps from x + 1 < 0


def phi(x, mean=0.0, std=1.0):
    return math.exp(-0.5 * ((x - mean) / std) ** 2) / (std * math.sqrt(2 * math.pi))


def cube_transitive():
    cube = act.ActivationSpec(
        "cube", [act.Branch(-math.inf, math.inf, "power", (1.0, 3.0, 0.0, 0.0))]
    )
    return act.construct_transitive(cube, 0.5, 1.0)


# a branch with slope 1e-13 <= 1e-12, a power branch flat only on
# [0, sqrt(10/3)], where 3e-13 x**2 <= 1e-12, and one branch with no
# breakpoint
NEAR_FLAT = act.ActivationSpec("near-flat", [
    act.Branch(-math.inf, 0.0, "affine", (1e-13, 0.0)),
    act.Branch(0.0, math.inf, "affine", (1.0, 0.0))])
PARTLY_FLAT = act.ActivationSpec("partly-flat", [
    act.Branch(-math.inf, 0.0, "affine", (1.0, 0.0)),
    act.Branch(0.0, math.inf, "power", (1e-13, 3.0, 0.0, 0.0))])
SHIFT = act.ActivationSpec(
    "shift", [act.Branch(-math.inf, math.inf, "affine", (2.0, 0.5))])
MEASURES = {"gaussian": gaussian_measure(),
            "window": uniform_window_measure(-1.0, 2.0),
            "table": table_measure([-2.0, 0.0, 1.0, 3.0], [0.0, 1.0, 0.5, 0.0])}

# The closed forms at b = 1, by hand: x + 1 crosses every breakpoint 0 at
# x = -1.  Each norm is the largest, over the branches, of the density's
# supremum on the branch's x-range over sigma's least slope there.  The
# rectifier and NEAR_FLAT are flat on x < -1, whatever the measure.
# leaky_rescaled_paper has slopes 0.1 below x = -1 and 1.1 above.  The
# table's density is 0.5 at -1 and peaks at 1 at 0, and the window meets
# x < -1 in one point only.  cube_transitive has slope 0.5 below x = -1
# and 3z**2 + 1 >= 1 above.
RELU_FLAT = (-math.inf, -1.0)
ORACLE = {
    "relu": RELU_FLAT, "relu-window": RELU_FLAT, "relu-table": RELU_FLAT,
    "leaky": phi(-1.0) / 0.1, "leaky-window": 1.0 / 1.1,
    "leaky-table": max(0.5 / 0.1, 1.0 / 1.1),
    "cube": max(phi(-1.0) / 0.5, phi(0.0) / 1.0), "cube-window": 1.0,
    "cube-table": max(0.5 / 0.5, 1.0 / 1.0),
    "near-flat": RELU_FLAT, "near-flat-window": RELU_FLAT,
    "near-flat-table": RELU_FLAT,
    **dict.fromkeys(("partly-flat", "partly-flat-window", "partly-flat-table"),
                    (-1.0, math.sqrt(10.0 / 3.0) - 1.0)),
    "shift": phi(0.0) / 2.0, "shift-window": 0.5, "shift-table": 0.5,
    # the leaky branches meet at x = -0.3, below the mean 0.5
    "leaky-shifted-mu": max(phi(-0.3, 0.5, 2.0) / 0.1, phi(0.5, 0.5, 2.0) / 1.1),
    "cube-small-b": max(phi(-0.25) / 0.5, phi(0.0) / 1.0),
    # the breakpoint lies below the window's grid, then above it
    "probes-below-grid": 1.0 / 1.1,
    "probes-above-grid": RELU_FLAT,
    # z**3 + z: sigma' = 3z**2 + 1 is least at 0, inside the branch
    "cube-plus-identity": phi(0.0) / 1.0,
}


def unique_grid_maximum(sigma, b, mu, points=2_000_001):
    """max density(x) / sigma'(x + b) over np.unique of an even grid and
    three probes around each breakpoint: a lower bound on the norm.  The
    grid spans mu's 1e-9 to 1 - 1e-9 quantile, widened by |b| + 1."""
    q = mu.quantile(np.asarray([1e-9, 1.0 - 1e-9]))
    xs = [np.linspace(float(q[0]) - abs(b) - 1.0, float(q[1]) + abs(b) + 1.0,
                      points)]
    for bp in sigma.breakpoints:
        xs.append(np.asarray([bp - b - 1e-9, bp - b, bp - b + 1e-9]))
    x = np.unique(np.concatenate(xs))
    return float(np.max(mu.density(x) / K.act_deriv(*sigma._table[:3], x + b)))


# the (sigma, b, mu) of each ORACLE entry, in its order
ORACLE_CASES = [
    *((sigma, 1.0, mu) for sigma in (act.by_name("relu"),
                                     act.by_name("leaky_rescaled_paper"),
                                     cube_transitive(), NEAR_FLAT,
                                     PARTLY_FLAT, SHIFT)
      for mu in MEASURES.values()),
    (act.by_name("leaky_rescaled_paper"), 0.3, gaussian_measure(0.5, 2.0)),
    (cube_transitive(), 0.25, gaussian_measure()),
    (act.by_name("leaky_rescaled_paper"), 1.0, uniform_window_measure(10.0, 12.0)),
    (act.by_name("relu"), 1.0, uniform_window_measure(-12.0, -10.0)),
    (act.ActivationSpec("cube-plus-identity", [
        act.Branch(-math.inf, math.inf, "power", (1.0, 3.0, 1.0, 0.0))]),
     1.0, gaussian_measure()),
]


@pytest.mark.parametrize("sigma, b, mu, want", [
    (*case, want) for case, want in zip(ORACLE_CASES, ORACLE.values(), strict=True)
], ids=list(ORACLE))
def test_pushforward_matches_unique_grid(sigma, b, mu, want):
    # the report against ORACLE's closed form; a well-defined norm also
    # bounds the unique grid's maximum from above
    rep = rb.pushforward_density_norm(sigma, b, mu)
    if isinstance(want, tuple):
        assert not rep.well_defined and rep.norm_value == math.inf
        assert rep.witness_interval == pytest.approx(want, rel=1e-12)
    else:
        assert rep.well_defined and rep.witness_interval is None
        assert rep.norm_value == pytest.approx(want, rel=1e-12)
        assert rep.norm_value >= unique_grid_maximum(sigma, b, mu)


def test_benchmark_pushforward_is_the_closed_form(relu, gauss_mu):
    leaky = act.by_name("leaky_rescaled_paper")
    assert rb.pushforward_density_norm(leaky, 1.0, gauss_mu).norm_value == \
        2.4197072451914337
    assert rb.pushforward_density_norm(relu, 1.0, gauss_mu).witness_interval == \
        (-math.inf, -1.0)


def test_cube_alone_is_not_well_defined(gauss_mu):
    # sigma'(0) = 0: no grid point need land near x = -1 to see it
    cube = act.ActivationSpec(
        "cube", [act.Branch(-math.inf, math.inf, "power", (1.0, 3.0, 0.0, 0.0))])
    for b in (1.0, 0.7):
        rep = rb.pushforward_density_norm(cube, b, gauss_mu)
        assert not rep.well_defined
        lo, hi = rep.witness_interval
        t = math.sqrt(1e-12 / 3.0)  # 3 z**2 <= 1e-12
        assert (lo, hi) == pytest.approx((-b - t, -b + t), rel=1e-12)
        assert lo < -b < hi


def test_vanishing_slope_tail_is_refused(gauss_mu):
    # sigma' = 0.5 z**-0.5 on z >= 0 falls to 1e-12 at z = (0.5/1e-12)**2
    root = act.ActivationSpec("root", [
        act.Branch(-math.inf, 0.0, "affine", (1.0, 0.0)),
        act.Branch(0.0, math.inf, "power", (1.0, 0.5, 0.0, 0.0))])
    rep = rb.pushforward_density_norm(root, 1.0, gauss_mu)
    assert not rep.well_defined
    assert rep.witness_interval == pytest.approx((0.25e24 - 1.0, math.inf),
                                                 rel=1e-12)


@pytest.mark.parametrize("name", MEASURES)
def test_density_sup_bounds_the_density(name):
    # the closed-form essential supremum on random intervals against a
    # fine grid inside them: one point carries no mass, so the ends are left
    # out, as the window's x = -1 is from (-inf, -1]
    mu = MEASURES[name]
    rng = np.random.default_rng(5)
    for lo, hi in [*np.sort(rng.uniform(-4.0, 4.0, (50, 2))), (-np.inf, -1.0),
                   (-1.0, np.inf), (-np.inf, np.inf)]:
        x = np.linspace(max(lo, -12.0), min(hi, 12.0), 20_001)[1:-1]
        sup = mu.density_sup(lo, hi)
        assert sup >= np.max(mu.density(x))
        assert sup == pytest.approx(np.max(mu.density(x)), rel=1e-3, abs=1e-12)


def highs_optimum(basis, target, mu, quad_nodes=2001):
    """Oracle: the same L1 simplex LP on every node, by scipy's HiGHS."""
    from scipy import sparse
    from scipy.optimize import linprog

    nodes, w = mu.nodes(quad_nodes)
    pts = nodes[:, None]
    B = np.column_stack([f.sample(pts)[:, 0] for f in basis])
    t = target.sample(pts)[:, 0]
    m, n = B.shape
    eye = sparse.identity(m, format="csr")
    A = sparse.vstack([
        sparse.hstack([sparse.csr_matrix(B), -eye, eye]),
        sparse.hstack([sparse.csr_matrix(np.ones((1, n))),
                       sparse.csr_matrix((1, 2 * m))]),
    ])
    c = np.r_[np.zeros(n), np.full(2 * m, w)]
    out = linprog(c, A_eq=A, b_eq=np.r_[t, 1.0], bounds=(0, None),
                  method="highs")
    assert out.status == 0, out.message
    return out.fun


def highs_on_cells(B, t, w):
    """Oracle: the L1 simplex LP of node-by-function columns B, target t and
    node weight w, with runs of equal rows of [B | t] merged into cells,
    by scipy's HiGHS."""
    from scipy import sparse
    from scipy.optimize import linprog

    new = np.any(np.diff(np.column_stack([B, t]), axis=0) != 0, axis=1)
    starts = np.flatnonzero(np.r_[True, new])
    B, t, wc = B[starts], t[starts], w * np.diff(np.r_[starts, len(t)])
    m, n = B.shape
    eye = sparse.identity(m, format="csr")
    A = sparse.vstack([
        sparse.hstack([sparse.csr_matrix(B), -eye, eye]),
        sparse.hstack([sparse.csr_matrix(np.ones((1, n))),
                       sparse.csr_matrix((1, 2 * m))]),
    ])
    out = linprog(np.r_[np.zeros(n), wc, wc], A_eq=A, b_eq=np.r_[t, 1.0],
                  bounds=(0, None), method="highs")
    assert out.status == 0, out.message
    return out.fun


def assert_on_simplex(fit):
    assert np.all(fit.coefficients >= 0.0)
    assert abs(fit.coefficients.sum() - 1.0) <= 1e-14


def node_cells(B, t):
    """(Bc, tc, counts): the rows of node-by-function columns B and target
    t at every node, with each run of equal rows of [B | t] merged into one
    cell that counts its nodes."""
    keep = rb._cell_starts(B, t)
    return B[keep], t[keep], np.diff(np.r_[np.flatnonzero(keep), len(t)])


def fit_on_nodes(basis, target, mu, quad_nodes=2001):
    """simplex_fit of the basis to the target, sampled at every one of mu's
    equal-mass nodes, with runs of equal rows merged (``node_cells``)."""
    nodes, w = mu.nodes(quad_nodes)
    pts = nodes[:, None]
    B = np.column_stack([f.sample(pts)[:, 0] for f in basis])
    t = target.sample(pts)[:, 0]
    return rb.simplex_fit(*node_cells(B, t), w)


def paper_ladder(seed, N):
    """The benchmark's basis ladder: indicator trees, optionally composed
    N times with the rescaled leaky operator at b = 1."""
    basis = rb.trees_basis_family()(seed, 256)
    if N:
        op = dd.CompositionOperator(
            act.by_name("leaky_rescaled_paper"), np.array([1.0])
        )
        basis = [dd.apply(op, f, N) for f in basis]
    return basis


class TestSimplexFit:
    def test_target_in_basis(self, gauss_mu, sin_fn):
        fit = fit_on_nodes([sin_fn], sin_fn, gauss_mu)
        assert fit.coefficients[0] == 1.0
        assert fit.residual == 0.0

    def test_two_constant_basis(self, gauss_mu):
        basis = [GridFunction.zero(), GridFunction.constant(1.0)]
        target = GridFunction.constant(0.3)
        fit = fit_on_nodes(basis, target, gauss_mu)
        assert fit.cells == 1  # every node has the same row
        assert fit.coefficients == pytest.approx([0.7, 0.3], abs=1e-9)
        assert fit.residual <= 1e-9

    def test_matches_brute_force_on_two_elements(self, gauss_mu):
        basis = [GridFunction.zero(), GridFunction.constant(1.0)]
        target = GridFunction.constant(0.3)
        fit = fit_on_nodes(basis, target, gauss_mu)
        # oracle: scan alpha in {0, 0.01, ..., 1.0}
        nodes, w = gauss_mu.nodes(2001)
        best = min(
            w * np.sum(np.abs(a * 1.0 - 0.3) * np.ones_like(nodes))
            for a in np.linspace(0, 1, 101)
        )
        assert fit.residual <= best + 1e-12

    def test_target_outside_hull(self, gauss_mu):
        basis = [GridFunction.zero(), GridFunction.constant(1.0)]
        target = GridFunction.constant(2.0)
        fit = fit_on_nodes(basis, target, gauss_mu)
        assert fit.coefficients[1] == pytest.approx(1.0, abs=1e-9)
        assert fit.residual == pytest.approx(1.0, abs=1e-9)

    def test_status_gap_and_feasibility(self, gauss_mu, sin_fn, cos_fn):
        basis = [sin_fn, cos_fn, GridFunction.constant(0.5), GridFunction.zero()]
        target = GridFunction.from_scalar(lambda x: 0.4 * np.sin(x) + 0.1)
        fit = fit_on_nodes(basis, target, gauss_mu)
        assert 0 < fit.iterations <= rb._LP_MAX_ITER
        assert abs(fit.gap) <= 1e-10
        assert fit.cells == 2001  # smooth functions leave no rows to merge
        assert_on_simplex(fit)
        # 0.4 sin + 0.2 * 0.5 + 0.4 * 0 reproduces the target
        assert fit.residual <= 1e-10
        assert fit.coefficients == pytest.approx([0.4, 0.0, 0.2, 0.4], abs=1e-9)

    def test_tree_rows_are_merged(self, gauss_mu):
        basis = paper_ladder(0, 0)[:4]
        target = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()
        fit = fit_on_nodes(basis, target, gauss_mu)
        # 4 trees and the target have at most 10 breakpoints between them
        assert fit.cells <= 11

    def test_projection_onto_simplex(self):
        # the nearest point of the simplex: shift by -0.1, clip the last
        assert rb._project_simplex(np.array([0.5, 0.7, -0.1])) == pytest.approx(
            [0.4, 0.6, 0.0], abs=1e-15)
        inside = np.array([0.25, 0.75])
        assert np.array_equal(rb._project_simplex(inside), inside)

    def test_iteration_cap_raises_with_state(self, gauss_mu, sin_fn, cos_fn,
                                             monkeypatch):
        monkeypatch.setattr(rb, "_LP_MAX_ITER", 2)
        with pytest.raises(LPSolveError) as info:
            fit_on_nodes([sin_fn, cos_fn], GridFunction.zero(), gauss_mu)
        err = info.value
        assert err.status == "iteration_limit"
        assert err.iterations == 2
        assert err.cells == 2001
        assert err.gap > 0.0

    def test_failed_factorization_raises_with_state(self, gauss_mu, sin_fn,
                                                    cos_fn, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(rb.np.linalg, "cholesky", fail)
        with pytest.raises(LPSolveError) as info:
            fit_on_nodes([sin_fn, cos_fn], GridFunction.zero(), gauss_mu)
        assert info.value.status == "numerical_failure"
        assert info.value.iterations == 0

    def test_failed_factorization_is_lifted_and_factored_again(
            self, gauss_mu, sin_fn, cos_fn, monkeypatch):
        # the first factorization fails: the same matrix with its diagonal
        # lifted is factored, and the solve goes on to the optimum
        real, seen = np.linalg.cholesky, []

        def fail_first(M):
            seen.append(M.copy())
            if len(seen) == 1:
                raise np.linalg.LinAlgError("not positive definite")
            return real(M)

        monkeypatch.setattr(rb.np.linalg, "cholesky", fail_first)
        fit = fit_on_nodes([sin_fn, cos_fn], GridFunction.zero(), gauss_mu)
        assert fit.gap <= 1e-12 * (1 + fit.residual)
        lift = seen[1] - seen[0]
        assert np.array_equal(lift, np.diag(np.diag(lift)))
        assert np.all(np.diag(lift) > 0.0)

    def test_face_of_optima(self, gauss_mu):
        # 9 of 12 indicators mix to the target, and other mixtures reach
        # residual 0 too: near that face of optima a Newton matrix is
        # singular to rounding (the solve stopped with "numerical_failure"
        # before its diagonal was lifted)
        rng = np.random.default_rng(29)
        lo = rng.uniform(-2.0, 1.0, 12)
        hi = lo + rng.uniform(0.05, 1.5, 12)
        basis = [TreeFunction(((1.0, l, h),)).as_gridfunction()
                 for l, h in zip(lo, hi)]
        k = int(rng.integers(2, 13))
        target = TreeFunction(tuple((1.0 / k, lo[j], hi[j]) for j in
                                    rng.choice(12, k, replace=False)))
        target = target.as_gridfunction()
        fit = fit_on_nodes(basis, target, gauss_mu, quad_nodes=501)
        best = highs_optimum(basis, target, gauss_mu, quad_nodes=501)
        assert fit.lower_bound <= best <= fit.lower_bound + fit.gap
        assert fit.gap <= 1e-12 * (1 + fit.residual)


class TestStartAndBounds:
    def cells(self, n=32):
        """(B, t, w) on the merged cells of the first n trees of the N = 0
        ladder at seed 0."""
        B, t, w = TestCertifiedBracket().sampled(0, 0)
        Bc, tc, counts = node_cells(B[:, :n], t)
        return Bc, tc, w * counts

    def test_warm_start_is_strictly_interior(self):
        B, t, w = self.cells()
        (m, n), u = B.shape, rb._UNIT
        wn = w / np.sum(w)
        rng = np.random.default_rng(2)
        beta = rb._WARM_BLEND
        for a in (np.eye(n)[3], rb._project_simplex(rng.uniform(-1, 1, n))):
            # duals inside the box and on its faces |y| = wn
            y = wn * np.clip(rng.uniform(-1.5, 1.5, m), -1.0, 1.0)
            x, y1, y0, z = rb._lp_start(B, t, wn, a, y, beta)
            a1, p, q = x[:n], x[n:n + m], x[n + m:]
            s, zp, zq = z[:n], z[n:n + m], z[n + m:]
            assert np.all(x > 0.0) and np.all(z > 0.0)
            assert np.all(a1 >= beta / n) and np.all(np.minimum(p, q) >= beta)
            assert np.all(s >= beta * (1 - 4 * u))
            assert np.all(np.minimum(zp, zq) >= beta * wn * (1 - 4 * u))
            # equality residuals at rounding level
            size = np.abs(B) @ a1 + np.abs(t) + p + q
            assert np.all(np.abs(B @ a1 - p + q - t) <= 4 * (n + 2) * u * size)
            assert abs(np.sum(a1) - 1.0) <= 4 * n * u
            price = B.T @ y1
            assert np.all(np.abs(price + y0 + s)
                          <= 4 * u * (np.abs(price) - y0))
            assert np.array_equal(wn + y1 - zp, np.zeros(m))
            assert np.all(np.abs(wn - y1 - zq) <= 2 * u * wn)

    def test_full_blend_is_the_cold_start(self):
        B, t, w = self.cells()
        (m, n), wn = B.shape, w / np.sum(w)
        x, y, y0, z = rb._lp_start(B, t, wn, np.eye(n)[0], wn / 2, 1.0)
        r = B @ np.full(n, 1.0 / n) - t
        assert np.array_equal(x, np.r_[np.full(n, 1.0 / n),
                                       np.maximum(r, 0.0) + 1.0,
                                       np.maximum(-r, 0.0) + 1.0])
        assert np.array_equal(z, np.r_[np.ones(n), wn, wn])
        assert not np.any(y) and y0 == -1.0

    def test_warm_solve_that_stops_short_is_solved_again_cold(self,
                                                              monkeypatch):
        real, calls = rb._l1_simplex_lp, []

        def warm_fails(*args):
            warm = len(args) > 5 and args[5] is not None
            calls.append(warm)
            a, y, status, gap, it = real(*args)
            return a, y, "iteration_limit" if warm else status, gap, it

        monkeypatch.setattr(rb, "_l1_simplex_lp", warm_fails)
        rows = TestCertifiedBracket().sweep(0, 0)["rows"]
        assert any(calls)
        assert all(not after for warm, after in zip(calls, calls[1:]) if warm)
        for row in rows:
            assert row["status"] == "optimal"
            assert row["gap"] <= 1e-12 * (1.0 + row["residual"])

    @pytest.mark.parametrize("off", [0.0, -1e-13, 1e-13])
    def test_upper_end_covers_the_exact_objective(self, off):
        # the upper end bounds, in exact arithmetic, the objective at the
        # point a / sum(a) of the simplex, also for a sum(a) that is off 1
        rng = np.random.default_rng(8)
        for _ in range(40):
            B = rng.uniform(-2.0, 2.0, (30, 6))
            B[rng.uniform(size=B.shape) < 0.4] = 0.0
            t, w = rng.uniform(-1.0, 1.0, 30), rng.uniform(0.0, 0.1, 30)
            a = rb._project_simplex(rng.uniform(-0.2, 1.0, 6)) * (1.0 + off)
            residual, upper = rb._primal_bound(B, t, w, a, 30)
            total = sum(map(Fraction, a))
            on = [Fraction(c) / total for c in a]  # a / sum(a), exactly
            exact = sum(Fraction(wi) * abs(sum(Fraction(b) * c
                                               for b, c in zip(row, on))
                                           - Fraction(ti))
                        for wi, row, ti in zip(w, B, t))
            assert Fraction(residual) <= Fraction(upper)
            assert exact <= Fraction(upper), (exact - Fraction(upper))


class TestAgainstHighs:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("N", [0, 2])
    def test_paper_ladder(self, gauss_mu, seed, N):
        target = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()
        basis = paper_ladder(seed, N)
        for n in (4, 8, 16, 32, 64, 128, 256):
            fit = fit_on_nodes(basis[:n], target, gauss_mu)
            assert_on_simplex(fit)
            best = highs_optimum(basis[:n], target, gauss_mu)
            assert abs(fit.residual - best) <= 1e-9, (n, fit.residual, best)

    @pytest.mark.parametrize("case", [
        "target_in_basis", "smooth", "two_constants", "outside_hull", "n1",
    ])
    def test_edge_cases(self, gauss_mu, case):
        sin = GridFunction.from_scalar(np.sin)
        cos = GridFunction.from_scalar(np.cos)
        zero, one = GridFunction.zero(), GridFunction.constant(1.0)
        basis, target = {
            "target_in_basis": ([cos, sin, GridFunction.constant(0.5)], sin),
            "smooth": ([GridFunction.from_scalar(lambda x, k=k: np.sin(k * x))
                        for k in range(1, 41)], cos),
            "two_constants": ([zero, one], GridFunction.constant(0.3)),
            "outside_hull": ([zero, one], GridFunction.constant(2.0)),
            "n1": (paper_ladder(3, 0)[:1],
                   TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()),
        }[case]
        fit = fit_on_nodes(basis, target, gauss_mu)
        assert_on_simplex(fit)
        best = highs_optimum(basis, target, gauss_mu)
        assert abs(fit.residual - best) <= 1e-9, (fit.residual, best)


class TestCertifiedBracket:
    NS = [4, 8, 16, 32, 64, 128, 256]

    def sweep(self, seed, N, ns=NS):
        mu = gaussian_measure()
        target = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()
        op = dd.CompositionOperator(
            act.by_name("leaky_rescaled_paper"), np.array([1.0])
        )
        return rb.rate_sweep(rb.trees_basis_family(), target, mu, ns, N,
                             op, seed=seed)

    def sampled(self, seed, N):
        """(B, t, w) of the sweep's ladder, sampled at every node."""
        nodes, w = gaussian_measure().nodes(2001)
        pts = nodes[:, None]
        t = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction().sample(pts)[:, 0]
        B = np.column_stack([f.sample(pts)[:, 0] for f in paper_ladder(seed, N)])
        return B, t, w

    def assert_sweep_brackets_the_highs_optimum(self, seed, N, ns=NS):
        """Each row's [lower_bound, lower_bound + gap] encloses the optimum
        on its cells, the upper end is the residual and its rounding term,
        and the gap is within 1e-12 (1 + residual)."""
        B, t, w = self.sampled(seed, N)
        for row in self.sweep(seed, N, ns)["rows"]:
            best = highs_on_cells(B[:, :row["n"]], t, w)
            lower, gap = row["lower_bound"], row["gap"]
            where = (seed, row["n"], lower, best, row["residual"], gap)
            assert lower <= best <= lower + gap, where
            assert row["residual"] - lower <= gap, where
            assert gap <= 1e-12 * (1.0 + row["residual"]), where
            assert 1 <= row["columns"] <= row["n"]

    @pytest.mark.parametrize("N", [0, 2])
    def test_default_sweeps_bracket_the_highs_optimum(self, N):
        # the CLI's default sweep at seeds 0-3
        for seed in range(4):
            self.assert_sweep_brackets_the_highs_optimum(seed, N)

    @pytest.mark.parametrize("N", [0, 2])
    def test_bracket_holds_where_the_optimum_passed_the_residual(self, N):
        # the benchmark's rate_sweep items at workload seed 603, round-seed
        # 1: at N = 2, n = 128 HiGHS's optimum on the same cells once lay
        # 5.6e-17 above the residual, inside the rounding of its sum
        self.assert_sweep_brackets_the_highs_optimum(1609460386, N)

    @pytest.mark.parametrize("N", [0, 2])
    def test_ladder_that_does_not_grow_brackets_the_highs_optimum(self, N):
        # rows whose n does not grow start from scratch, and the 32 row
        # from the 8 row's state: each still encloses its optimum
        self.assert_sweep_brackets_the_highs_optimum(0, N, [16, 4, 8, 8, 32])

    @pytest.mark.parametrize("N", [0, 2])
    def test_rows_count_their_own_cells_on_one_table(self, N, monkeypatch):
        # every row fits a prefix of one cell table, and reports the cells
        # its own n columns merge the nodes into; the dual it carries to
        # the next row lies on the table's cells, inside |y_i| <= w counts_i
        real, fits = rb.simplex_fit, []

        def record(Bc, tc, counts, w, carried=None):
            fits.append((Bc, counts, w, real(Bc, tc, counts, w, carried)))
            return fits[-1][-1]

        monkeypatch.setattr(rb, "simplex_fit", record)
        rows = self.sweep(0, N, [16, 4, 8, 8, 32])["rows"]
        B, t, w = self.sampled(0, N)
        for row, (Bc, counts, fw, fit) in zip(rows, fits, strict=True):
            assert Bc.shape == (len(counts), row["n"]) and fw == w
            assert row["cells"] == len(node_cells(B[:, :row["n"]], t)[2])
            assert fit.dual.shape == counts.shape
            assert np.all(np.abs(fit.dual) <= w * counts)

    def test_rows_the_carried_state_certifies_take_no_step(self):
        # the row before's columns, coefficients and dual certify some
        # rows of the default N=2 sweep with no solve
        rows = self.sweep(0, 2)["rows"]
        carried = [(prev, row) for prev, row in zip(rows, rows[1:])
                   if row["iterations"] == 0]
        assert carried and rows[0]["iterations"] > 0
        for prev, row in carried:
            assert row["columns"] == prev["columns"]
            assert row["lower_bound"] <= row["residual"]
            assert row["gap"] <= 1e-12 * (1.0 + row["residual"])

    def test_pricing_leaves_most_columns_out(self):
        # at N=0 the optimum uses a few of the 256 columns: pricing closes
        # the bracket before the set falls back to every column
        row = self.sweep(0, 0)["rows"][-1]
        assert row["n"] == 256
        assert row["columns"] < 256

    def test_pricing_grows_to_every_column_the_optimum_needs(self, gauss_mu):
        # the target is the uniform mixture of 24 indicators whose ends are
        # all distinct, so its only convex representation puts 1/24 on
        # every column: pricing must bring each of them into the solve
        n = 24
        terms = [(1.0, -2.0 + 0.1 * j, 0.05 + 0.1 * j) for j in range(n)]
        basis = [TreeFunction((term,)).as_gridfunction() for term in terms]
        target = TreeFunction(tuple((1.0 / n, lo, hi)
                                    for _, lo, hi in terms)).as_gridfunction()
        fit = fit_on_nodes(basis, target, gauss_mu)
        assert fit.columns == n
        assert fit.coefficients == pytest.approx(np.full(n, 1.0 / n), abs=1e-9)
        best = highs_optimum(basis, target, gauss_mu)
        assert abs(fit.residual - best) <= 1e-9, (fit.residual, best)
        assert fit.lower_bound <= best <= fit.lower_bound + fit.gap
        assert fit.gap <= 1e-12 * (1.0 + fit.residual)


class TestTreeCells:
    """The sweep's cell table from the trees' node runs against the merge
    of every node's row."""

    def assert_node_cells(self, y, amp, lo, hi, t):
        for k in sorted({1, 2, 5, len(amp)}):
            got = rb._sweep_cells(y, amp[:k], lo[:k], hi[:k], t)
            want = node_cells(K.tree_columns(amp[:k], lo[:k], hi[:k], y), t)
            for g, v in zip(got, want):
                assert g.dtype == v.dtype and g.shape == v.shape
                assert g.tobytes() == v.tobytes(), k

    def family(self, rng, y, k=40):
        """k trees with zero amplitudes, empty and tied intervals, ends on
        nodes and ends past the first and last node."""
        amp = rng.uniform(0.25, 2.0, k)
        amp[rng.integers(0, k, 6)] = 0.0
        lo = rng.uniform(-3.0, 2.0, k)
        hi = lo + rng.uniform(0.0, 2.5, k)
        finite = y[np.isfinite(y)]
        on_node = rng.choice(finite, 8)
        lo[:4], hi[4:8] = on_node[:4], on_node[4:]
        lo[8:12] = hi[8:12] = on_node[:4]  # empty: lo == hi on a node
        lo[12:16], hi[12:16] = lo[16:20], hi[16:20]  # tied with other trees
        lo[20], hi[21] = -10.0, 10.0
        return amp, lo, np.maximum(hi, lo)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("N", [0, 2])
    def test_runs_give_the_node_cells(self, seed, N):
        rng = np.random.default_rng(seed)
        nodes, _ = gaussian_measure().nodes(501)
        op = dd.CompositionOperator(
            act.by_name("leaky_rescaled_paper"), np.array([1.0])
        )
        y = nodes if N == 0 else op.iterate(nodes, N)[:, 0]
        t = TreeFunction(((1.0, 0.0, 1.0),)).sample(nodes)[:, 0]
        self.assert_node_cells(y, *self.family(rng, y), t)

    def test_tied_nodes_and_rough_targets(self):
        # nodes rounded to one decimal repeat, so runs end inside ties, a
        # smooth target changes at every distinct node, and a NaN target
        # value differs from every row
        rng = np.random.default_rng(11)
        y = np.round(gaussian_measure().nodes(501)[0], 1)
        holes = np.where(np.isin(np.arange(len(y)), [0, 7, 8, 300]), np.nan, y)
        for t in (np.sin(3.0 * y), np.zeros_like(y), holes):
            self.assert_node_cells(y, *self.family(rng, y), t)

    @pytest.mark.parametrize("case", ["nan_node", "unsorted", "infinite_nodes"])
    def test_sorted_nodes_give_the_node_cells(self, case):
        # the sweep sorts S^N(nodes) with the target by a stable argsort:
        # NaNs go last, where no open interval holds them, and +-inf sit at
        # the ends, outside every interval too
        rng = np.random.default_rng(5)
        y = gaussian_measure().nodes(301)[0].copy()
        amp, lo, hi = self.family(rng, y)
        lo[22], hi[23] = -np.inf, np.inf
        if case == "nan_node":
            y[[150, 7]] = np.nan
        elif case == "unsorted":
            y[[100, 101]] = y[[101, 100]]
        else:
            y[[3, 290]], y[[0, 200]] = -np.inf, np.inf
        t = TreeFunction(((1.0, 0.0, 1.0),)).sample(y)[:, 0]
        order = np.argsort(y, kind="stable")
        self.assert_node_cells(y[order], amp, lo, hi, t[order])


class TestRateSweep:
    def setup_sweep(self, seed=0, ns=(4, 8, 16)):
        mu = gaussian_measure()
        target = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()
        op = dd.CompositionOperator(
            act.by_name("leaky_rescaled_paper"), np.array([1.0])
        )
        fam = rb.trees_basis_family()
        return rb.rate_sweep(fam, target, mu, list(ns), 0, op, seed=seed,
                             quad_nodes=1001)

    def test_single_element_is_best_single(self):
        mu = gaussian_measure()
        target = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()
        fam = rb.trees_basis_family()
        op = dd.CompositionOperator(
            act.by_name("leaky_rescaled_paper"), np.array([1.0])
        )
        table = rb.rate_sweep(fam, target, mu, [1], 0, op, seed=3,
                              quad_nodes=1001)
        basis = fam(3, 1)
        single = fit_on_nodes(basis, target, mu, quad_nodes=1001)
        assert table["rows"][0]["residual"] == pytest.approx(single.residual, rel=1e-9)

    def test_monotone_and_below_bounds(self):
        table = self.setup_sweep()
        res = [r["residual"] for r in table["rows"]]
        assert all(b <= a * 1.05 for a, b in zip(res, res[1:]))
        for r in table["rows"]:
            assert r["residual"] <= r["bound_proof_final"]
            assert r["bound_reference"] == pytest.approx(r["bound_proof_final"])

    def test_bit_reproducible(self):
        t1 = self.setup_sweep(seed=5)
        t2 = self.setup_sweep(seed=5)
        for a, b in zip(t1["rows"], t2["rows"]):
            assert a["residual"] == b["residual"]

    def test_depth_scales_reference_bound(self):
        mu = gaussian_measure()
        target = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()
        op = dd.CompositionOperator(
            act.by_name("leaky_rescaled_paper"), np.array([1.0])
        )
        fam = rb.trees_basis_family()
        table = rb.rate_sweep(fam, target, mu, [4], 2, op, seed=0,
                              quad_nodes=1001)
        row = table["rows"][0]
        norm = table["pushforward_norm"]
        assert row["bound_reference"] == pytest.approx(
            norm**2 * (1.0 + np.sqrt(2.0)) / 2.0
        )
        assert row["bound_displayed"] == pytest.approx(
            norm * (1.0 + np.sqrt(2.0)) / 2.0
        )
        assert row["residual"] <= row["bound_reference"]


    def test_rows_carry_lp_diagnostics(self):
        # a row takes 0 Newton steps only when the state of a smaller row
        # before it certifies it: then it keeps that row's column set
        table = self.setup_sweep(ns=(4, 8, 16, 32, 64))
        prev = None
        for row in table["rows"]:
            assert row["status"] == "optimal"
            assert abs(row["gap"]) <= 1e-10
            assert isinstance(row["iterations"], int)
            assert row["iterations"] >= 0
            if row["iterations"] == 0:
                assert prev is not None and prev["n"] < row["n"]
                assert row["columns"] == prev["columns"]
                assert row["lower_bound"] <= row["residual"]
                assert row["gap"] <= 1e-12 * (1.0 + row["residual"])
            assert isinstance(row["cells"], int) and 1 <= row["cells"] <= 1001
            assert row["degenerate"] is False
            prev = row
        assert table["degenerate"] is False

    def assert_rows_match_their_fits(self, N):
        """Each row and the exact fit of its prefix of f o S^N bracket the
        same optimum, and the rows never rise.  The row starts from the
        state of the row before and the fit from scratch, so they may end
        on different column sets and differ within their brackets."""
        mu = gaussian_measure()
        target = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()
        op = dd.CompositionOperator(
            act.by_name("leaky_rescaled_paper"), np.array([1.0])
        )
        table = rb.rate_sweep(rb.trees_basis_family(), target, mu,
                              [4, 8, 16, 32], N, op, seed=1, quad_nodes=1001)
        basis = [dd.apply(op, f, N) for f in rb.trees_basis_family()(1, 32)]
        prev = math.inf
        for row in table["rows"]:
            fit = fit_on_nodes(basis[: row["n"]], target, mu, quad_nodes=1001)
            assert row["lower_bound"] <= fit.residual
            assert fit.lower_bound <= row["residual"] <= prev
            assert row["gap"] <= 1e-12 * (1.0 + row["residual"])
            prev = row["residual"]

    def test_rows_never_rise_and_match_their_fits(self):
        self.assert_rows_match_their_fits(0)

    def test_depth_two_rows_never_rise_and_match_their_fits(self):
        self.assert_rows_match_their_fits(2)

    @pytest.mark.parametrize("amp", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude_rejected(self, amp):
        op = dd.CompositionOperator(
            act.by_name("leaky_rescaled_paper"), np.array([1.0])
        )
        tree = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()

        class Odd(rb.TreeFamily):  # the last amplitude drawn is amp
            def draw(self, seed, count):
                amps, lo, hi = super().draw(seed, count)
                amps[-1] = amp
                return amps, lo, hi

        with pytest.raises(PreconditionError, match="finite tree amplitudes"):
            rb.rate_sweep(Odd(*rb.trees_basis_family()), tree,
                          gaussian_measure(), [4], 0, op, quad_nodes=101)

    def test_overflowing_amplitude_range_rejected(self):
        # finite ends whose width overflows draw infinite amplitudes
        op = dd.CompositionOperator(
            act.by_name("leaky_rescaled_paper"), np.array([1.0])
        )
        tree = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()
        family = rb.trees_basis_family(amp_range=(-1e308, 1e308))
        with pytest.raises(PreconditionError, match="finite tree amplitudes"):
            rb.rate_sweep(family, tree, gaussian_measure(), [4], 0, op,
                          quad_nodes=101)

    def test_draw_is_the_members_terms(self):
        # one vectorized expression per range gives, bit for bit, the terms
        # of a per-member draw and of the members the family returns
        (a0, a1), (l0, l1), (n0, n1) = family = rb.trees_basis_family()
        for seed in range(60):
            u = np.random.default_rng(seed).uniform(size=(256, 3))
            want = []
            for i in range(256):
                left = l0 + u[i, 1] * (l1 - l0)
                want.append((float(a0 + u[i, 0] * (a1 - a0)), float(left),
                             float(left + (n0 + u[i, 2] * (n1 - n0)))))
            amp, lo, hi = family.draw(seed, 256)
            assert list(zip(amp.tolist(), lo.tolist(), hi.tolist())) == want
            assert [f.tree.terms[0] for f in family(seed, 256)] == want

    def test_sweep_reads_arrays_and_builds_no_member(self, monkeypatch):
        op = dd.CompositionOperator(
            act.by_name("leaky_rescaled_paper"), np.array([1.0])
        )
        target = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()
        drawn, built = [], []
        draw, as_gridfunction = rb.TreeFamily.draw, TreeFunction.as_gridfunction
        monkeypatch.setattr(rb.TreeFamily, "draw", lambda self, seed, count:
                            drawn.append(draw(self, seed, count)) or drawn[-1])
        monkeypatch.setattr(TreeFunction, "as_gridfunction", lambda self, *a, **k:
                            built.append(self) or as_gridfunction(self, *a, **k))
        ns = [4, 16, 64, 256]
        rb.rate_sweep(rb.trees_basis_family(), target, gaussian_measure(), ns,
                      0, op, seed=5, quad_nodes=101)
        assert built == [] and len(drawn) == 1
        amp, lo, hi = drawn[0]
        members = rb.trees_basis_family()(5, 256)
        assert list(zip(amp.tolist(), lo.tolist(), hi.tolist())) == \
            [f.tree.terms[0] for f in members]

    @pytest.mark.parametrize("N", [0, 2])
    def test_unsorted_nodes_match_highs_on_every_node(self, N):
        # a measure whose quadrature nodes come in shuffled order: the sweep
        # sorts S^N(nodes) with the target, and its rows are the optima of
        # the node-level LP, in which every node weighs the same
        gauss = gaussian_measure()
        perm = np.random.default_rng(3).permutation(1001)
        shuffled = gauss._replace(quantile=lambda u: gauss.quantile(u)[perm])
        nodes = shuffled.nodes(1001)[0]
        assert np.any(nodes[1:] < nodes[:-1])
        target = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()
        op = dd.CompositionOperator(
            act.by_name("leaky_rescaled_paper"), np.array([1.0])
        )
        ns = [4, 8, 16, 32]
        table = rb.rate_sweep(rb.trees_basis_family(), target, shuffled, ns,
                              N, op, seed=2, quad_nodes=1001)
        basis = [dd.apply(op, f, N) for f in rb.trees_basis_family()(2, 32)]
        for row in table["rows"]:
            best = highs_optimum(basis[:row["n"]], target, shuffled, 1001)
            assert abs(row["residual"] - best) <= 1e-9 * best, (row, best)
        in_order = rb.rate_sweep(rb.trees_basis_family(), target, gauss, ns,
                                 N, op, seed=2, quad_nodes=1001)
        assert [row["residual"] for row in table["rows"]] == \
            [row["residual"] for row in in_order["rows"]]

    @pytest.mark.parametrize("ns", [[], [0], [4, -1]])
    def test_nonpositive_n_rejected(self, ns):
        with pytest.raises(PreconditionError):
            self.setup_sweep(ns=ns)

    def test_negative_depth_rejected(self):
        op = dd.CompositionOperator(
            act.by_name("leaky_rescaled_paper"), np.array([1.0])
        )
        tree = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()
        with pytest.raises(PreconditionError, match="depth N"):
            rb.rate_sweep(rb.trees_basis_family(), tree, gaussian_measure(),
                          [4], -1, op, quad_nodes=101)

    def test_depth_two_sweep_is_degenerate(self):
        mu = gaussian_measure()
        target = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()
        op = dd.CompositionOperator(
            act.by_name("leaky_rescaled_paper"), np.array([1.0])
        )
        table = rb.rate_sweep(rb.trees_basis_family(), target, mu, [4, 8, 16],
                              2, op, seed=0, quad_nodes=1001)
        nodes, w = mu.nodes(1001)
        mass = w * np.sum(np.abs(target.sample(nodes[:, None])[:, 0]))
        for row in table["rows"]:
            assert row["degenerate"] is True
            assert row["residual"] == pytest.approx(mass, rel=1e-9)
        assert table["degenerate"] is True
