"""DFPT: the library's central physics claim — response theory is exact
to first order, validated against finite-field references."""

import numpy as np
import pytest

import repro.core.simulator as simulator
from repro.atoms import hydrogen_molecule, water
from repro.config import CPSCFSettings, get_settings
from repro.core import PerturbationSimulator
from repro.dfpt import (
    DFPTSolver,
    finite_difference_polarizability,
    isotropic_polarizability,
    polarizability_tensor,
)
from repro.dft import SCFDriver
from repro.errors import CPSCFConvergenceError


class TestResponseCycle:
    def test_converges_for_h2(self, h2_ground_state):
        solver = DFPTSolver(h2_ground_state)
        result = solver.solve_direction(2)
        assert result.iterations >= 2
        assert result.residual < 1e-6

    def test_direction_validation(self, h2_ground_state):
        with pytest.raises(ValueError):
            DFPTSolver(h2_ground_state).solve_direction(3)

    def test_response_density_integrates_to_zero(self, h2_ground_state):
        """A homogeneous field conserves charge: int n^(1) = 0."""
        result = DFPTSolver(h2_ground_state).solve_direction(2)
        total = h2_ground_state.grid.integrate(result.response_density)
        assert total == pytest.approx(0.0, abs=1e-6)

    def test_response_dm_symmetric(self, h2_ground_state):
        result = DFPTSolver(h2_ground_state).solve_direction(0)
        p1 = result.response_density_matrix
        assert np.allclose(p1, p1.T)

    def test_nonconvergence_raises(self, h2_ground_state):
        settings = CPSCFSettings(max_iterations=1, response_tolerance=1e-14)
        with pytest.raises(CPSCFConvergenceError):
            DFPTSolver(h2_ground_state, settings).solve_direction(0)

    def test_solve_all_returns_three(self, h2_ground_state):
        results = DFPTSolver(h2_ground_state).solve_all()
        assert [r.direction for r in results] == [0, 1, 2]


class TestPolarizability:
    def test_h2_dfpt_matches_finite_difference(self, h2_ground_state, minimal_settings):
        alpha = polarizability_tensor(h2_ground_state, minimal_settings.cpscf)
        driver = SCFDriver(hydrogen_molecule(), minimal_settings)
        alpha_fd = finite_difference_polarizability(
            hydrogen_molecule(), minimal_settings, driver=driver
        )
        assert np.allclose(alpha, alpha_fd, atol=5e-4)

    def test_h2_symmetry(self, h2_ground_state, minimal_settings):
        alpha = polarizability_tensor(h2_ground_state, minimal_settings.cpscf)
        # Axial molecule along z: alpha_xx == alpha_yy, off-diagonals ~ 0.
        assert alpha[0, 0] == pytest.approx(alpha[1, 1], rel=1e-6)
        off = alpha - np.diag(np.diag(alpha))
        assert np.abs(off).max() < 1e-6
        # Parallel component exceeds perpendicular for H2.
        assert alpha[2, 2] > alpha[0, 0]

    def test_h2_positive_definite(self, h2_ground_state, minimal_settings):
        alpha = polarizability_tensor(h2_ground_state, minimal_settings.cpscf)
        assert np.linalg.eigvalsh(alpha).min() > 0.0

    def test_h2_magnitude_physical(self, h2_ground_state, minimal_settings):
        alpha = polarizability_tensor(h2_ground_state, minimal_settings.cpscf)
        iso = isotropic_polarizability(alpha)
        # Experimental ~5.2 a.u.; minimal model lands within ~30%.
        assert 3.0 < iso < 7.0

    def test_water_dfpt_matches_finite_difference(
        self, water_ground_state, minimal_settings
    ):
        alpha = polarizability_tensor(water_ground_state, minimal_settings.cpscf)
        driver = SCFDriver(water(), minimal_settings)
        alpha_fd = finite_difference_polarizability(
            water(), minimal_settings, driver=driver
        )
        assert np.allclose(alpha, alpha_fd, atol=1e-3)

    def test_water_magnitude_physical(self, water_ground_state, minimal_settings):
        alpha = polarizability_tensor(water_ground_state, minimal_settings.cpscf)
        iso = isotropic_polarizability(alpha)
        assert 7.0 < iso < 13.0  # expt ~9.8 a.u.

    def test_isotropic_validation(self):
        with pytest.raises(ValueError):
            isotropic_polarizability(np.zeros((2, 2)))

    def test_fd_step_validation(self, minimal_settings):
        with pytest.raises(ValueError):
            finite_difference_polarizability(
                hydrogen_molecule(), minimal_settings, step=0.0
            )


class TestDIISLoop:
    """Pulay (DIIS) mixing on the response density matrix."""

    @pytest.mark.parametrize(
        "name, scf_iterations, cpscf_iterations",
        [("h2", 6, [3, 3, 5]), ("water", 12, [8, 7, 8])],
    )
    def test_pinned_cycle_counts(
        self, request, name, scf_iterations, cpscf_iterations
    ):
        gs = request.getfixturevalue(f"{name}_ground_state")
        assert gs.iterations == scf_iterations
        results = DFPTSolver(gs).solve_all()
        assert [r.iterations for r in results] == cpscf_iterations

    @pytest.mark.parametrize("name", ["h2", "water"])
    def test_alpha_near_tight_solve(self, request, name, minimal_settings):
        gs = request.getfixturevalue(f"{name}_ground_state")
        alpha = polarizability_tensor(gs, minimal_settings.cpscf)
        tight = CPSCFSettings(response_tolerance=1e-11, max_iterations=400)
        alpha_tight = polarizability_tensor(gs, tight)
        assert np.abs(alpha - alpha_tight).max() < 5e-7


class CountingTimer(simulator.PhaseTimer):
    """A PhaseTimer that remembers every instance made."""

    made = []

    def __init__(self):
        super().__init__()
        CountingTimer.made.append(self)


@pytest.fixture(scope="module", params=[0.0, 1e-6], ids=["dense", "screened"])
def water_physics(request):
    """One full water ``run_physics()`` plus the PhaseTimer it used."""
    mp = pytest.MonkeyPatch()
    mp.setattr(simulator, "PhaseTimer", CountingTimer)
    CountingTimer.made.clear()
    try:
        settings = get_settings("minimal", screening_threshold=request.param)
        result = PerturbationSimulator(water(), settings).run_physics()
    finally:
        mp.undo()
    (timer,) = CountingTimer.made
    return result, timer


class TestZeroWorkFirstCycle:
    """Cycle 1 starts from P^(1) = 0 and skips Sumup, Rho and H."""

    def test_zero_dm_gives_zero_work(self, water_physics):
        result, _ = water_physics
        gs = result.ground_state
        backend = gs.builder.backend
        n1 = backend.density_on_grid(np.zeros_like(gs.density_matrix))
        assert not np.any(n1)
        assert not np.any(gs.solver.hartree_potential(np.zeros_like(gs.density)))
        assert not np.any(backend.potential_matrix(np.zeros_like(gs.density)))

    def test_one_skip_per_direction(self, water_physics):
        result, timer = water_physics
        cycles = sum(result.cpscf_iterations_per_direction)
        assert timer.visits("DM") == cycles
        for phase in ("Sumup", "Rho", "H"):
            assert timer.visits(phase) == cycles - 3
