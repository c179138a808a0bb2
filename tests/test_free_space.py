"""Signed-indicator embedding and barycenter properties (exact arithmetic)."""

import numpy as np
import pytest

from uaplab import free_space as fs
from uaplab.errors import DimensionMismatchError, PreconditionError
from uaplab.function_space import GridFunction
from uaplab.network import TreeGridFunction


class TestEta:
    def test_zero_maps_to_zero_function(self):
        f = fs.eta(0.0)
        xs = np.linspace(-5, 5, 101)[:, None]
        assert np.all(f.sample(xs) == 0.0)
        assert f.tree.l1_norm() == 0.0

    def test_positive_indicator(self):
        f = fs.eta(2.0)
        assert f(1.0) == 1.0
        assert f(-0.5) == 0.0
        assert f(2.0) == 0.0  # open interval
        assert f.tree.l1_norm() == pytest.approx(2.0, abs=1e-15)

    def test_negative_indicator(self):
        f = fs.eta(-1.5)
        assert f(-1.0) == -1.0
        assert f(0.0) == 0.0
        assert f.tree.l1_norm() == pytest.approx(1.5, abs=1e-15)

    def test_distance_example(self):
        assert fs.l1_distance(fs.eta(3.0), fs.eta(1.0)) == pytest.approx(2.0)

    def test_isometry_random_pairs(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for r, s in rng.uniform(-100, 100, (1000, 2)):
            d = fs.l1_distance(fs.eta(r), fs.eta(s))
            worst = max(worst, abs(d - abs(r - s)))
        assert worst < 1e-9

    def test_isometry_across_sign_change(self):
        assert fs.l1_distance(fs.eta(2.0), fs.eta(-3.0)) == pytest.approx(5.0)


class TestRho:
    def test_single_atom_left_inverse(self):
        f = fs.eta(1.5)
        out = fs.rho(fs.FormalCombination(((1.0, f),)))
        xs = np.linspace(-3, 3, 301)[:, None]
        assert np.array_equal(out.sample(xs), f.sample(xs))

    def test_representation_independence(self):
        f = fs.eta(2.5)
        split = fs.rho(fs.FormalCombination(((0.5, f), (0.5, f))))
        xs = np.linspace(-4, 4, 201)[:, None]
        assert np.max(np.abs(split.sample(xs) - f.sample(xs))) == 0.0

    def test_cancellation(self):
        f = fs.eta(1.0)
        out = fs.rho(fs.FormalCombination(((1.0, f), (-1.0, f))))
        xs = np.linspace(-2, 2, 101)[:, None]
        assert np.max(np.abs(out.sample(xs))) == 0.0

    def test_linearity_in_weights(self):
        c1 = fs.FormalCombination(((1.0, fs.eta(1.0)), (0.5, fs.eta(-2.0))))
        c2 = fs.FormalCombination(((0.25, fs.eta(3.0)),))
        a, b = 0.7, -1.3
        merged = fs.rho(fs.FormalCombination(
            tuple((a * w, f) for w, f in c1.atoms)
            + tuple((b * w, f) for w, f in c2.atoms)))
        xs = np.linspace(-5, 5, 401)[:, None]
        want = a * fs.rho(c1).sample(xs) + b * fs.rho(c2).sample(xs)
        assert np.max(np.abs(merged.sample(xs) - want)) < 1e-12

    def test_tree_atoms_give_a_tree(self):
        atoms = ((0.7, fs.eta(1.0)), (-1.3, fs.eta(-2.0)), (2.0, fs.eta(0.5)))
        out = fs.rho(fs.FormalCombination(atoms))
        assert isinstance(out, TreeGridFunction)
        xs = np.linspace(-3, 3, 601)[:, None]
        want = sum(w * f.sample(xs) for w, f in atoms)
        assert np.max(np.abs(out.sample(xs) - want)) < 1e-12

    def test_mixed_closure_atoms(self):
        f = fs.eta(1.0)
        g = GridFunction.from_scalar(np.sin, name="sin")
        out = fs.rho(fs.FormalCombination(((2.0, f), (1.0, g))))
        xs = np.linspace(-2, 2, 101)[:, None]
        want = 2.0 * f.sample(xs) + g.sample(xs)
        assert np.max(np.abs(out.sample(xs) - want)) < 1e-12

    def test_atoms_of_different_dimensions_rejected(self):
        atoms = ((1.0, fs.eta(1.0)), (1.0, GridFunction.identity(2)))
        with pytest.raises(DimensionMismatchError):
            fs.rho(fs.FormalCombination(atoms))

    def test_empty_combination_is_zero(self):
        out = fs.rho(fs.FormalCombination(()))
        xs = np.linspace(-1, 1, 11)[:, None]
        assert np.all(out.sample(xs) == 0.0)

    def test_exact_distance_requires_steps(self):
        g = GridFunction.from_scalar(np.sin)
        with pytest.raises(PreconditionError):
            fs.l1_distance(fs.eta(1.0), g)
