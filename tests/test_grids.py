"""Angular rules, radial shells, Becke partitioning, grids and batching."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atoms import (
    hydrogen_molecule,
    polyethylene,
    polyethylene_units_for_atoms,
    water,
)
from repro.config import get_settings
from repro.errors import GridError
from repro.grids import (
    angular_rule,
    attach_relevant_atoms,
    becke_weights,
    build_batches,
    build_grid,
    cut_plane_partition,
    radial_shells_for_species,
)
from repro.grids.batching import _attach_relevant_atoms_celllist
from repro.grids.partition import _becke_step


class TestAngularRules:
    @pytest.mark.parametrize("n", [6, 14, 26, 50, 110, 194])
    def test_weights_sum_to_4pi(self, n):
        rule = angular_rule(n)
        assert rule.n_points >= n
        assert rule.weights.sum() == pytest.approx(4 * np.pi, rel=1e-12)

    @pytest.mark.parametrize("n", [6, 14, 26, 50, 110])
    def test_points_on_unit_sphere(self, n):
        rule = angular_rule(n)
        assert np.allclose(np.linalg.norm(rule.points, axis=1), 1.0, atol=1e-12)

    def test_integrates_polynomials_exactly(self):
        # int x^2 dOmega = 4 pi / 3 (degree 2 <= any rule's exactness).
        for n in (6, 26, 50):
            rule = angular_rule(n)
            val = rule.integrate(rule.points[:, 0] ** 2)
            assert val == pytest.approx(4 * np.pi / 3, rel=1e-12)

    def test_integrate_shape_check(self):
        rule = angular_rule(6)
        with pytest.raises(GridError):
            rule.integrate(np.zeros(7))

    def test_bad_request(self):
        with pytest.raises(GridError):
            angular_rule(0)


class TestRadialShells:
    def test_monotone_positive_weights(self):
        s = radial_shells_for_species(8, 24)
        assert np.all(np.diff(s.r) > 0)
        assert np.all(s.weights > 0)
        assert s.r[-1] == pytest.approx(10.0)

    def test_heavier_species_get_more_shells(self):
        assert radial_shells_for_species(16, 24).n > radial_shells_for_species(1, 24).n

    def test_integrates_gaussian_moment(self):
        s = radial_shells_for_species(1, 60, r_outer=12.0)
        # int_0^inf e^{-r^2} r^2 dr = sqrt(pi)/4.
        val = np.sum(s.weights * np.exp(-s.r**2))
        assert val == pytest.approx(np.sqrt(np.pi) / 4, rel=1e-4)

    def test_validation(self):
        with pytest.raises(GridError):
            radial_shells_for_species(1, 3)
        with pytest.raises(GridError):
            radial_shells_for_species(1, 24, r_outer=-1.0)


class TestBeckeWeights:
    def test_single_atom_weight_is_one(self):
        h2 = hydrogen_molecule().subset([0])
        pts = np.array([[0.0, 0.0, 1.0]])
        assert becke_weights(h2, pts, 0)[0] == pytest.approx(1.0)

    def test_partition_of_unity(self, rng):
        w = water()
        pts = rng.normal(size=(40, 3)) * 1.5
        total = sum(becke_weights(w, pts, a) for a in range(3))
        assert np.allclose(total, 1.0, atol=1e-10)

    def test_weight_near_own_nucleus_dominates(self):
        h2 = hydrogen_molecule()
        near0 = h2.coords[0] + np.array([[0.0, 0.0, -0.05]])
        assert becke_weights(h2, near0, 0)[0] > 0.99

    def test_midpoint_symmetric(self):
        h2 = hydrogen_molecule()
        mid = 0.5 * (h2.coords[0] + h2.coords[1])[None, :]
        w0 = becke_weights(h2, mid, 0)[0]
        w1 = becke_weights(h2, mid, 1)[0]
        assert w0 == pytest.approx(w1) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(GridError):
            becke_weights(water(), np.zeros((1, 3)), 5)
        with pytest.raises(GridError):
            becke_weights(water(), np.zeros((1, 3)), 0, smoothing=0)


class TestBeckeStep:
    """The pow-free smoothing step against the textbook ``f**3`` form."""

    @staticmethod
    def _pow_step(mu, k):
        f = mu
        for _ in range(k):
            f = 1.5 * f - 0.5 * f**3
        return f

    def test_matches_pow_form(self, rng):
        mu = np.concatenate([rng.uniform(-1.0, 1.0, 50_000),
                             np.linspace(-1.0, 1.0, 50_001)])
        for k in (1, 3):
            assert np.abs(_becke_step(mu, k) - self._pow_step(mu, k)).max() <= 1e-15

    def test_odd_with_fixed_points(self, rng):
        mu = rng.uniform(-1.0, 1.0, 10_000)
        assert np.array_equal(_becke_step(-mu, 3), -_becke_step(mu, 3))
        ends = np.array([-1.0, 0.0, 1.0])
        assert np.array_equal(_becke_step(ends, 3), ends)

    def test_pe20_partition_of_unity(self, minimal_settings):
        chain = polyethylene(polyethylene_units_for_atoms(20))
        points = build_grid(chain, minimal_settings.grids).points[::4]
        total = sum(becke_weights(chain, points, a) for a in range(chain.n_atoms))
        assert np.abs(total - 1.0).max() <= 1e-14


class TestIntegrationGrid:
    def test_gaussian_integral(self, minimal_settings):
        grid = build_grid(water(), minimal_settings.grids, with_partition=True)
        val = np.zeros(grid.n_points)
        for c in water().coords:
            val += np.exp(-((grid.points - c) ** 2).sum(axis=1))
        total = grid.integrate(val)
        assert total == pytest.approx(3 * np.pi**1.5, rel=2e-2)

    def test_weights_require_partition(self, minimal_settings):
        grid = build_grid(water(), minimal_settings.grids)
        with pytest.raises(GridError):
            _ = grid.weights
        grid.compute_partition_weights()
        assert grid.weights.shape == (grid.n_points,)

    def test_points_of_atom(self, minimal_settings):
        grid = build_grid(water(), minimal_settings.grids)
        counted = sum(len(grid.points_of_atom(a)) for a in range(3))
        assert counted == grid.n_points

    def test_angular_weight_shell_sum(self, minimal_settings):
        grid = build_grid(hydrogen_molecule(), minimal_settings.grids)
        sel = (grid.atom_index == 0) & (grid.shell_index == 3)
        assert grid.angular_weights[sel].sum() == pytest.approx(4 * np.pi, rel=1e-12)


class TestBatching:
    def test_partition_covers_exactly(self, rng):
        pts = rng.normal(size=(1000, 3))
        groups = cut_plane_partition(pts, 64)
        all_idx = np.concatenate(groups)
        assert sorted(all_idx.tolist()) == list(range(1000))
        assert all(len(g) <= 64 for g in groups)

    @given(n=st.integers(10, 400), target=st.integers(1, 80))
    @settings(max_examples=25, deadline=None)
    def test_partition_coverage_property(self, n, target):
        rng = np.random.default_rng(n * 1000 + target)
        pts = rng.normal(size=(n, 3))
        groups = cut_plane_partition(pts, target)
        got = np.sort(np.concatenate(groups))
        assert np.array_equal(got, np.arange(n))
        assert max(len(g) for g in groups) <= target

    def test_batches_spatially_compact(self, minimal_settings):
        grid = build_grid(water(), minimal_settings.grids)
        batches = build_batches(grid, target_points=100)
        # Batches are spatially compact: cut-plane groups must be far
        # tighter than random groups of the same size.
        rng = np.random.default_rng(0)
        cut_radii = []
        rand_radii = []
        for b in batches:
            pts = grid.points[b.point_indices]
            cut_radii.append(np.linalg.norm(pts - pts.mean(0), axis=1).mean())
            rnd = grid.points[rng.choice(grid.n_points, size=b.n_points, replace=False)]
            rand_radii.append(np.linalg.norm(rnd - rnd.mean(0), axis=1).mean())
        # Outer shells are intrinsically wide on this tiny molecule, so
        # the advantage is moderate but must be systematic.
        assert np.mean(cut_radii) < 0.8 * np.mean(rand_radii)
        assert np.median(cut_radii) < np.median(rand_radii)

    def test_batch_sizes_and_metadata(self, minimal_settings):
        grid = build_grid(water(), minimal_settings.grids)
        batches = build_batches(grid, target_points=128)
        assert all(1 <= b.n_points <= 128 for b in batches)
        assert all(len(b.owner_atoms) >= 1 for b in batches)

    def test_attach_relevant_atoms_superset_of_owners(self, minimal_settings):
        w = water()
        grid = build_grid(w, minimal_settings.grids)
        batches = build_batches(grid, target_points=128)
        cut = np.full(3, 9.0)
        batches = attach_relevant_atoms(batches, w, cut)
        for b in batches:
            assert set(b.owner_atoms) <= set(b.relevant_atoms)

    def test_celllist_matches_dense_path(self, minimal_settings):
        w = water()
        grid = build_grid(w, minimal_settings.grids)
        batches = build_batches(grid, target_points=128)
        cut = np.full(3, 6.5)
        dense = attach_relevant_atoms(batches, w, cut)
        cells = _attach_relevant_atoms_celllist(batches, w, cut)
        for a, b in zip(dense, cells):
            assert a.relevant_atoms == b.relevant_atoms

    def test_invalid_target(self, rng):
        with pytest.raises(GridError):
            cut_plane_partition(rng.normal(size=(10, 3)), 0)
