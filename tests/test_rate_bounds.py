"""Pushforward densities, exact simplex fits (checked against HiGHS), and
rate sweeps."""

import math

import numpy as np
import pytest

from uaplab import activations as act
from uaplab import depth_dynamics as dd
from uaplab import rate_bounds as rb
from uaplab.errors import LPSolveError, PreconditionError, VerificationError
from uaplab.function_space import GridFunction, gaussian_measure
from uaplab.network import TreeFunction

PHI_AT = lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi)


class TestPushforward:
    def test_rescaled_leaky_matches_branch_analysis(self, leaky_rescaled, gauss_mu):
        # oracle: worst branch slope 0.1 meets the density at the branch
        # boundary x = -1, giving 10 * phi(-1)
        rep = rb.pushforward_density_norm(leaky_rescaled, 1.0, gauss_mu)
        assert rep.well_defined
        assert rep.norm_value == pytest.approx(10 * PHI_AT(-1.0), rel=1e-4)
        assert rep.kappa_check

    def test_pure_shift_gives_density_peak(self, gauss_mu):
        shift = act.ActivationSpec(
            "shift", [act.Branch(-math.inf, math.inf, "affine", (1.0, 0.0))]
        )
        rep = rb.pushforward_density_norm(shift, 0.7, gauss_mu)
        assert rep.norm_value == pytest.approx(PHI_AT(0.0), rel=1e-6)
        assert not rep.kappa_check

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


def assert_on_simplex(fit):
    assert np.all(fit.coefficients >= 0.0)
    assert abs(fit.coefficients.sum() - 1.0) <= 1e-14


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
        fit = rb.simplex_fit([sin_fn], sin_fn, gauss_mu)
        assert fit.coefficients[0] == 1.0
        assert fit.residual == 0.0

    def test_two_constant_basis(self, gauss_mu):
        basis = [GridFunction.zero(), GridFunction.constant(1.0)]
        target = GridFunction.constant(0.3)
        fit = rb.simplex_fit(basis, target, gauss_mu)
        assert fit.cells == 1  # every node has the same row
        assert fit.coefficients == pytest.approx([0.7, 0.3], abs=1e-9)
        assert fit.residual <= 1e-9

    def test_matches_brute_force_on_two_elements(self, gauss_mu):
        basis = [GridFunction.zero(), GridFunction.constant(1.0)]
        target = GridFunction.constant(0.3)
        fit = rb.simplex_fit(basis, target, gauss_mu)
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
        fit = rb.simplex_fit(basis, target, gauss_mu)
        assert fit.coefficients[1] == pytest.approx(1.0, abs=1e-9)
        assert fit.residual == pytest.approx(1.0, abs=1e-9)

    def test_status_gap_and_feasibility(self, gauss_mu, sin_fn, cos_fn):
        basis = [sin_fn, cos_fn, GridFunction.constant(0.5), GridFunction.zero()]
        target = GridFunction.from_scalar(lambda x: 0.4 * np.sin(x) + 0.1)
        fit = rb.simplex_fit(basis, target, gauss_mu)
        assert fit.status == "optimal"
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
        fit = rb.simplex_fit(basis, target, gauss_mu)
        # 4 trees and the target have at most 10 breakpoints between them
        assert fit.cells <= 11

    def test_projection_onto_simplex(self):
        # the nearest point of the simplex: shift by -0.1, clip the last
        assert rb._project_simplex(np.array([0.5, 0.7, -0.1])) == pytest.approx(
            [0.4, 0.6, 0.0], abs=1e-15)
        inside = np.array([0.25, 0.75])
        assert np.array_equal(rb._project_simplex(inside), inside)

    def test_empty_basis_rejected(self, gauss_mu, sin_fn):
        with pytest.raises(PreconditionError):
            rb.simplex_fit([], sin_fn, gauss_mu)

    def test_iteration_cap_raises_with_state(self, gauss_mu, sin_fn, cos_fn,
                                             monkeypatch):
        monkeypatch.setattr(rb, "_LP_MAX_ITER", 2)
        with pytest.raises(LPSolveError) as info:
            rb.simplex_fit([sin_fn, cos_fn], GridFunction.zero(), gauss_mu)
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
            rb.simplex_fit([sin_fn, cos_fn], GridFunction.zero(), gauss_mu)
        assert info.value.status == "numerical_failure"
        assert info.value.iterations == 0


class TestAgainstHighs:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("N", [0, 2])
    def test_paper_ladder(self, gauss_mu, seed, N):
        target = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()
        basis = paper_ladder(seed, N)
        for n in (4, 8, 16, 32, 64, 128, 256):
            fit = rb.simplex_fit(basis[:n], target, gauss_mu)
            assert fit.status == "optimal"
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
        fit = rb.simplex_fit(basis, target, gauss_mu)
        assert fit.status == "optimal"
        assert_on_simplex(fit)
        best = highs_optimum(basis, target, gauss_mu)
        assert abs(fit.residual - best) <= 1e-9, (fit.residual, best)


class TestRateSweep:
    def setup_sweep(self, seed=0, ns=(4, 8, 16), **kwargs):
        mu = gaussian_measure()
        target = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()
        op = dd.CompositionOperator(
            act.by_name("leaky_rescaled_paper"), np.array([1.0])
        )
        fam = rb.trees_basis_family()
        return rb.rate_sweep(fam, target, mu, list(ns), 0, op, seed=seed,
                             quad_nodes=1001, **kwargs)

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
        single = rb.simplex_fit(basis, target, mu, quad_nodes=1001)
        assert table.rows[0]["residual"] == pytest.approx(single.residual, rel=1e-9)

    def test_monotone_and_below_bounds(self):
        table = self.setup_sweep()
        res = [r["residual"] for r in table.rows]
        assert all(b <= a * 1.05 for a, b in zip(res, res[1:]))
        for r in table.rows:
            assert r["residual"] <= r["bound_proof_final"]
            assert r["bound_reference"] == pytest.approx(r["bound_proof_final"])

    def test_bit_reproducible(self):
        t1 = self.setup_sweep(seed=5)
        t2 = self.setup_sweep(seed=5)
        for a, b in zip(t1.rows, t2.rows):
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
        row = table.rows[0]
        norm = table.pushforward_norm
        assert row["bound_reference"] == pytest.approx(
            norm**2 * (1.0 + np.sqrt(2.0)) / 2.0
        )
        assert row["bound_displayed"] == pytest.approx(
            norm * (1.0 + np.sqrt(2.0)) / 2.0
        )
        assert row["residual"] <= row["bound_reference"]


    def test_rows_carry_lp_diagnostics(self):
        table = self.setup_sweep()
        for row in table.rows:
            assert row["status"] == "optimal"
            assert abs(row["gap"]) <= 1e-10
            assert isinstance(row["iterations"], int) and row["iterations"] > 0
            assert isinstance(row["cells"], int) and 1 <= row["cells"] <= 1001
            assert row["degenerate"] is False
        assert table.degenerate is False

    def test_rows_never_rise_and_match_their_fits(self):
        mu = gaussian_measure()
        target = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()
        table = self.setup_sweep(seed=1, ns=(4, 8, 16, 32))
        basis = rb.trees_basis_family()(1, 32)
        prev = math.inf
        for row in table.rows:
            fit = rb.simplex_fit(basis[: row["n"]], target, mu, quad_nodes=1001)
            assert row["residual"] == min(fit.residual, prev)
            prev = row["residual"]

    def test_max_iter_and_restarts_are_ignored(self):
        a = self.setup_sweep(seed=2, max_iter=1, restarts=1)
        b = self.setup_sweep(seed=2, max_iter=5000, restarts=9)
        assert a.rows == b.rows

    @pytest.mark.parametrize("ns", [[], [0], [4, -1]])
    def test_nonpositive_n_rejected(self, ns):
        with pytest.raises(PreconditionError):
            self.setup_sweep(ns=ns)

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
        for row in table.rows:
            assert row["degenerate"] is True
            assert row["residual"] == pytest.approx(mass, rel=1e-9)
        assert table.degenerate is True

class TestKappaGrowth:
    def test_table_growth(self, leaky_rescaled, gauss_mu):
        out = rb.kappa_growth_check(leaky_rescaled, 1.0, gauss_mu, range(0, 11))
        values = [r["value"] for r in out["rows"]]
        assert values[0] == 1.0
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_norm_at_most_one_flagged(self, gauss_mu):
        shift = act.ActivationSpec(
            "shift", [act.Branch(-math.inf, math.inf, "affine", (1.0, 0.0))]
        )
        with pytest.raises(VerificationError):
            rb.kappa_growth_check(shift, 1.0, gauss_mu, [0, 1, 2])

    def test_flat_branch_rejected(self, relu, gauss_mu):
        with pytest.raises(PreconditionError):
            rb.kappa_growth_check(relu, 1.0, gauss_mu, [0, 1])
