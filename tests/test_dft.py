"""DFT substrate: xc, Hartree solver, matrix builder, mixing, SCF."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atoms import (
    hydrogen_molecule,
    polyethylene,
    polyethylene_units_for_atoms,
    water,
)
from repro.basis import build_basis
from repro.basis.ylm import n_lm
from repro.config import get_settings
from repro.dft import (
    MatrixBuilder,
    MultipoleSolver,
    PulayMixer,
    SCFDriver,
    density_on_grid,
    lda_exchange_correlation,
    lda_xc_kernel,
)
from repro.dft.hamiltonian import _GROUP_LIMIT
from repro.dft.hartree import adams_moulton_cumulative
from repro.dft.mixing import linear_mix
from repro.errors import SCFConvergenceError
from repro.grids import build_grid
from repro.utils.linalg import density_matrix_from_orbitals, symmetrize


class TestXC:
    def test_exchange_known_value(self):
        # For n=1: ex = -(3/4)(3/pi)^(1/3).
        res = lda_exchange_correlation(np.array([1.0]))
        ex_expected = -(3.0 / 4.0) * (3.0 / np.pi) ** (1.0 / 3.0)
        assert res.exc[0] < ex_expected  # correlation adds negative energy
        assert res.exc[0] == pytest.approx(ex_expected, abs=0.1)

    def test_vxc_is_derivative_of_n_exc(self):
        n = np.linspace(0.01, 2.0, 50)
        res = lda_exchange_correlation(n)
        h = 1e-6 * n
        e_plus = lda_exchange_correlation(n + h).exc * (n + h)
        e_minus = lda_exchange_correlation(n - h).exc * (n - h)
        fd = (e_plus - e_minus) / (2 * h)
        assert np.allclose(res.vxc, fd, rtol=1e-5)

    def test_fxc_is_derivative_of_vxc(self):
        n = np.linspace(0.05, 1.0, 20)
        fxc = lda_xc_kernel(n)
        h = 1e-5 * n
        fd = (
            lda_exchange_correlation(n + h).vxc - lda_exchange_correlation(n - h).vxc
        ) / (2 * h)
        assert np.allclose(fxc, fd, rtol=1e-3)

    def test_zero_density_safe(self):
        res = lda_exchange_correlation(np.array([0.0, 1e-30]))
        assert np.all(res.exc == 0.0) and np.all(res.vxc == 0.0)
        assert np.all(lda_xc_kernel(np.array([0.0])) == 0.0)

    @given(n=st.floats(1e-8, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_xc_quantities_negative_for_positive_density(self, n):
        res = lda_exchange_correlation(np.array([n]))
        assert res.exc[0] < 0.0 and res.vxc[0] < 0.0


class TestAdamsMoulton:
    def test_integrates_polynomial_exactly(self):
        # AM4 is exact for cubics on uniform meshes.
        x = np.linspace(0.0, 2.0, 41)
        f = 3 * x**2
        out = adams_moulton_cumulative(f, np.full_like(x, x[1] - x[0]))
        assert np.allclose(out, x**3, atol=1e-10)

    def test_converges_on_smooth_integrand(self):
        x = np.linspace(0.0, np.pi, 201)
        out = adams_moulton_cumulative(np.sin(x), np.full_like(x, x[1] - x[0]))
        assert np.allclose(out, 1.0 - np.cos(x), atol=1e-8)

    def test_vector_channels(self):
        x = np.linspace(0, 1, 21)
        f = np.stack([x, x**2], axis=1)
        out = adams_moulton_cumulative(f, np.full_like(x, x[1] - x[0]))
        assert np.allclose(out[-1], [0.5, 1.0 / 3.0], atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adams_moulton_cumulative(np.zeros(5), np.zeros(4))


class TestMultipoleSolver:
    def test_hartree_energy_of_gaussian(self, minimal_settings):
        """v_H of a normalized Gaussian: E_H = (1/2) int n v = sqrt(2/pi)/2 /sigma..."""
        h2 = hydrogen_molecule()
        grid = build_grid(h2, minimal_settings.grids, with_partition=True)
        solver = MultipoleSolver(grid, l_max=4)
        # Unit-charge Gaussian at the molecular centre.
        alpha = 0.8
        n = (alpha / np.pi) ** 1.5 * np.exp(
            -alpha * (grid.points**2).sum(axis=1)
        )
        v = solver.hartree_potential(n)
        e_h = 0.5 * float(np.sum(grid.weights * n * v))
        exact = np.sqrt(alpha / (2.0 * np.pi))  # self-energy of Gaussian
        assert e_h == pytest.approx(exact, rel=2e-2)

    def test_far_field_is_coulombic(self, minimal_settings):
        h2 = hydrogen_molecule()
        grid = build_grid(h2, minimal_settings.grids, with_partition=True)
        solver = MultipoleSolver(grid, l_max=4)
        alpha = 1.2
        n = (alpha / np.pi) ** 1.5 * np.exp(-alpha * (grid.points**2).sum(axis=1))
        charge = float(np.sum(grid.weights * n))
        expansion = solver.solve(solver.expand(n))
        far = np.array([[25.0, 3.0, -4.0]])
        v = solver.evaluate(expansion, points=far)
        r = np.linalg.norm(far[0])
        assert v[0] == pytest.approx(charge / r, rel=2e-2)

    def test_expansion_nbytes_accounting(self, minimal_settings):
        grid = build_grid(water(), minimal_settings.grids, with_partition=True)
        solver = MultipoleSolver(grid, l_max=4)
        exp = solver.solve(solver.expand(np.ones(grid.n_points)))
        assert exp.rho_multipole_nbytes > 0
        assert exp.potential_spline_nbytes > 0


@pytest.fixture(scope="module")
def pe20_ground_state(minimal_settings):
    """Converged 20-atom polyethylene ground state (minimal settings)."""
    chain = polyethylene(polyethylene_units_for_atoms(20))
    return SCFDriver(chain, minimal_settings).run()


class TestHartreeGridStencil:
    """The cached grid stencil against the ``CubicSpline`` points path."""

    @pytest.fixture(params=["water", "pe20"])
    def ground_state(self, request):
        return request.getfixturevalue(f"{request.param}_ground_state")

    @staticmethod
    def _clamped_grid(grid, n_moved=8):
        """The grid with the last atom's outermost points moved inside
        the first shell of atom 0, so the grid path meets the clamp."""
        x0 = grid.shell_radii[0][0]
        rng = np.random.default_rng(7)
        dirs = rng.standard_normal((n_moved, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = x0 * np.linspace(0.1, 0.9, n_moved)
        points = grid.points.copy()
        points[-n_moved:] = grid.structure.coords[0] + radii[:, None] * dirs
        return dataclasses.replace(grid, points=points)

    @pytest.mark.parametrize("kind", ["ground_state", "response"])
    def test_grid_path_matches_points_path(self, ground_state, kind, rng):
        gs = ground_state
        grid = self._clamped_grid(gs.grid)
        solver = MultipoleSolver(grid, gs.solver.l_max)
        if kind == "ground_state":
            n = gs.density
        else:
            n = gs.density * rng.standard_normal(grid.n_points)
        expansion = solver.solve(solver.expand(n))

        v = solver.evaluate(expansion)
        ref = solver.evaluate(expansion, points=grid.points)
        assert np.abs(v - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(solver.evaluate(expansion), v)

        # Every regime of the stencil was exercised: clamp, near, far.
        stencils = [solver.stencil(a) for a in range(gs.structure.n_atoms)]
        r0 = np.linalg.norm(
            grid.points[stencils[0].near] - gs.structure.coords[0], axis=1
        )
        assert np.count_nonzero(r0 < 0.95 * grid.shell_radii[0][0]) >= 8
        assert all(st.near.size > 0 for st in stencils)
        assert sum(st.far.size for st in stencils) > 0

    def test_stencil_memory_bound(self, ground_state):
        """Each atom's stencil stays within 1.3x the plain (r, Y) cache."""
        gs = ground_state
        solver = gs.solver
        plain = gs.grid.n_points * (n_lm(solver.l_max) + 1) * 8
        for a in range(gs.structure.n_atoms):
            assert solver.stencil(a).nbytes <= 1.3 * plain


class TestMatrixBuilder:
    def test_overlap_properties(self, minimal_settings):
        h2 = hydrogen_molecule()
        basis = build_basis(h2)
        grid = build_grid(h2, minimal_settings.grids, with_partition=True)
        builder = MatrixBuilder(basis, grid)
        s = builder.overlap()
        assert np.allclose(s, s.T)
        # Normalized basis; minimal-grid quadrature is ~2% accurate.
        assert np.allclose(np.diag(s), 1.0, atol=5e-2)
        evals = np.linalg.eigvalsh(s)
        assert evals.min() > -1e-10  # PSD

    def test_kinetic_positive_definite(self, minimal_settings):
        h2 = hydrogen_molecule()
        builder = MatrixBuilder(
            build_basis(h2), build_grid(h2, minimal_settings.grids, with_partition=True)
        )
        t = builder.kinetic()
        assert np.linalg.eigvalsh(t).min() > 0.0

    def test_potential_matrix_of_constant_is_overlap(self, minimal_settings):
        h2 = hydrogen_molecule()
        builder = MatrixBuilder(
            build_basis(h2), build_grid(h2, minimal_settings.grids, with_partition=True)
        )
        v = builder.potential_matrix(np.full(builder.grid.n_points, 2.5))
        assert np.allclose(v, 2.5 * builder.overlap(), atol=1e-12)

    def test_density_integrates_to_electrons(self, h2_ground_state):
        gs = h2_ground_state
        n = density_on_grid(gs.builder, gs.density_matrix)
        assert gs.grid.integrate(n) == pytest.approx(2.0, abs=1e-6)

    def test_density_nonnegative(self, h2_ground_state):
        gs = h2_ground_state
        n = density_on_grid(gs.builder, gs.density_matrix)
        assert n.min() > -1e-10


def _per_batch_table(builder):
    """The chi table evaluated batch by batch over ``relevant_atoms``."""
    values = np.zeros((builder.grid.n_points, builder.basis.n_basis))
    for b in builder.batches:
        idx = b.point_indices
        values[idx] = builder.basis.evaluate(
            builder.grid.points[idx], atoms=b.relevant_atoms
        )
    return values


def _per_batch_kinetic(builder):
    """T evaluated batch by batch, active atoms and columns under screening."""
    w = builder.grid.weights
    pattern = builder.pattern
    t = np.zeros((builder.basis.n_basis, builder.basis.n_basis))
    for b in builder.batches:
        idx = b.point_indices
        wb = w[idx]
        if pattern is not None:
            act = pattern.active_functions[b.index]
            if act.size == 0:
                continue
            _, grads = builder.basis.evaluate_with_gradients(
                builder.grid.points[idx], atoms=pattern.active_atoms[b.index]
            )
            grads = grads[:, act, :]
            sub = np.zeros((act.size, act.size))
            for k in range(3):
                gk = grads[:, :, k]
                sub += gk.T @ (gk * wb[:, None])
            t[np.ix_(act, act)] += sub
            continue
        _, grads = builder.basis.evaluate_with_gradients(
            builder.grid.points[idx], atoms=b.relevant_atoms
        )
        for k in range(3):
            gk = grads[:, :, k]
            t += gk.T @ (gk * wb[:, None])
    return symmetrize(0.5 * t)


@pytest.fixture(scope="module")
def grouped_substrates(minimal_settings):
    """Basis and partitioned grid of water and 20-atom polyethylene."""
    out = {}
    for name, structure in (
        ("water", water()),
        ("pe20", polyethylene(polyethylene_units_for_atoms(20))),
    ):
        out[name] = (
            build_basis(structure),
            build_grid(structure, minimal_settings.grids, with_partition=True),
        )
    return out


class TestGroupedBasisEvaluation:
    """Point-group evaluation is bitwise the per-batch derivation."""

    @pytest.fixture(scope="class")
    def per_batch(self):
        """Per-batch (table, T) of a builder, memoized per substrate and
        threshold: the derivation is the slow path under test."""
        memo = {}

        def derive(name, builder):
            key = (name, builder.screening_threshold)
            if key not in memo:
                memo[key] = (_per_batch_table(builder), _per_batch_kinetic(builder))
            return memo[key]

        return derive

    @pytest.mark.parametrize("name", ["water", "pe20"])
    @pytest.mark.parametrize("threshold", [0.0, 1e-6])
    def test_table_and_kinetic_bitwise(
        self, grouped_substrates, per_batch, name, threshold
    ):
        basis, grid = grouped_substrates[name]
        builder = MatrixBuilder(basis, grid, screening_threshold=threshold)
        assert builder.table_cache_enabled
        table, kinetic = per_batch(name, builder)
        assert np.array_equal(builder.basis_values(), table)
        assert np.array_equal(builder.kinetic(), kinetic)

    @pytest.mark.parametrize("name", ["water", "pe20"])
    def test_uncached_builder_bitwise(self, grouped_substrates, per_batch, name):
        basis, grid = grouped_substrates[name]
        builder = MatrixBuilder(basis, grid, cache_limit=grid.n_points)
        assert not builder.table_cache_enabled
        table, kinetic = per_batch(name, builder)
        with pytest.warns(RuntimeWarning, match="cache limit"):
            assert np.array_equal(builder.basis_values(), table)
        assert np.array_equal(builder.kinetic(), kinetic)

    @pytest.mark.parametrize("threshold", [0.0, 1e-6])
    def test_groups_tile_batches_under_budget(self, grouped_substrates, threshold):
        basis, grid = grouped_substrates["pe20"]
        builder = MatrixBuilder(basis, grid, screening_threshold=threshold)
        groups = list(builder._point_groups(lambda b: b.relevant_atoms))
        assert 1 < len(groups) < len(builder.batches)
        seen = []
        for idx, atoms, members in groups:
            assert idx.size * basis.n_basis * 3 <= _GROUP_LIMIT
            for b, rows in members:
                assert np.array_equal(idx[rows], b.point_indices)
                assert set(b.relevant_atoms) <= set(atoms)
                seen.append(b.index)
        assert seen == [b.index for b in builder.batches]


class TestMixing:
    def test_linear_mix(self):
        out = linear_mix(np.zeros(3), np.ones(3), 0.25)
        assert np.allclose(out, 0.25)
        with pytest.raises(ValueError):
            linear_mix(np.zeros(3), np.ones(3), 0.0)

    def test_diis_solves_linear_fixed_point_fast(self):
        """DIIS on x -> Ax + b converges far faster than plain iteration."""
        rng = np.random.default_rng(0)
        a = 0.6 * rng.normal(size=(8, 8))
        a = a / np.abs(np.linalg.eigvals(a)).max() * 0.9
        b = rng.normal(size=8)
        x_star = np.linalg.solve(np.eye(8) - a, b)

        mixer = PulayMixer(history=8, linear_factor=0.5)
        x = np.zeros(8)
        for _ in range(25):
            residual = a @ x + b - x
            x = mixer.push(x + residual, residual)
        assert np.linalg.norm(x - x_star) < 1e-6

    def test_history_validation(self):
        with pytest.raises(ValueError):
            PulayMixer(history=1)
        with pytest.raises(ValueError):
            PulayMixer(linear_factor=1.5)

    def test_reset(self):
        m = PulayMixer()
        m.push(np.ones(3), np.ones(3))
        m.reset()
        assert m.push(np.zeros(3), np.zeros(3)) is not None


class TestSCF:
    def test_h2_energy_reasonable(self, h2_ground_state):
        # LDA H2 ~ -1.14 Ha; minimal basis/grid lands nearby.
        assert -1.25 < h2_ground_state.total_energy < -1.0

    def test_h2_symmetric_dipole_zero(self, h2_ground_state):
        assert np.allclose(h2_ground_state.dipole_moment(), 0.0, atol=1e-8)

    def test_water_energy_and_dipole(self, water_ground_state):
        gs = water_ground_state
        assert -77.0 < gs.total_energy < -74.0
        mu = gs.dipole_moment()
        assert mu[2] > 0.1  # along the C2v axis
        assert abs(mu[0]) < 1e-6 and abs(mu[1]) < 1e-6

    def test_occupations_and_homo_lumo(self, water_ground_state):
        gs = water_ground_state
        assert gs.n_occupied == 5
        assert gs.occupations[:5].sum() == pytest.approx(10.0)
        homo, lumo = gs.eigenvalues[4], gs.eigenvalues[5]
        assert homo < lumo < 0.5

    def test_energy_components_sum(self, water_ground_state):
        gs = water_ground_state
        total = sum(gs.energy_components.values())
        assert total == pytest.approx(gs.total_energy, abs=1e-8)

    def test_odd_electron_count_rejected(self, minimal_settings):
        with pytest.raises(SCFConvergenceError, match="even electron count"):
            SCFDriver(water(), minimal_settings, charge=1)

    def test_convergence_failure_raises(self, minimal_settings):
        settings = minimal_settings.with_scf(max_iterations=1)
        with pytest.raises(SCFConvergenceError):
            SCFDriver(water(), settings).run()

    def test_field_lowers_symmetry(self, minimal_settings):
        driver = SCFDriver(hydrogen_molecule(), minimal_settings)
        gs = driver.run(external_field=np.array([0.0, 0.0, 1e-2]))
        assert abs(gs.dipole_moment()[2]) > 1e-3
