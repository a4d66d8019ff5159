"""The physics workloads: one ``run_physics()`` on 20-atom polyethylene.

``pe20-dense`` is Hartree-bound: the multipole solver takes most of the
run and the backends' compact-contraction path is never entered.
``pe20-screened`` runs the same chain with block-sparse screening at
the default threshold, so the backends' compact path does most of its
work there.  Each is the other's "should not move" control.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from checks import check_physics, load_references
from spans import Recorder, totals, unspanned_fraction
from stats import steal_seconds

#: Screening threshold per physics workload (1e-6 is the CLI default).
WORKLOADS = {"pe20-dense": 0.0, "pe20-screened": 1e-6}
N_ATOMS = 20


def _inputs(workload: str):
    from repro.atoms import polyethylene, polyethylene_units_for_atoms
    from repro.config import get_settings

    structure = polyethylene(polyethylene_units_for_atoms(N_ATOMS))
    settings = get_settings("minimal", backend="numpy",
                            screening_threshold=WORKLOADS[workload])
    return structure, settings


def setup_seconds(workload: str) -> float:
    """Wall time of one ``SCFDriver`` construction, as ``run_physics``
    builds it: basis, grid and partition, batches, integrals."""
    from repro.dft.scf import SCFDriver
    from repro.utils.timing import PhaseTimer

    structure, settings = _inputs(workload)
    t0 = time.perf_counter()
    SCFDriver(structure, settings, charge=0, timer=PhaseTimer(), backend=None)
    return time.perf_counter() - t0


def install_layers(rec: Recorder) -> None:
    """Wrap each physics layer's public entry points."""
    import repro.basis.basis_set as basis_set
    import repro.dfpt.response as response
    import repro.dft.scf as scf
    import repro.grids.atom_grid as atom_grid
    import repro.grids.batching as batching
    from repro.backends.base import ExecutionBackend
    from repro.dft.hamiltonian import MatrixBuilder
    from repro.dft.hartree import MultipoleSolver

    rec.wrap(scf.SCFDriver, "__init__", "setup")
    rec.wrap(scf.SCFDriver, "run", "scf")
    rec.wrap(response.DFPTSolver, "__init__", "cpscf")
    rec.wrap(response.DFPTSolver, "solve_direction", "cpscf")
    # SCFDriver binds the builders at import; the fleet's substrate
    # cache imports them from their modules when it builds.
    rec.wrap(scf, "build_basis", "basis.build")
    rec.wrap(basis_set, "build_basis", "basis.build")
    rec.wrap(scf, "build_grid", "grids.build")
    rec.wrap(atom_grid, "build_grid", "grids.build")
    rec.wrap(MatrixBuilder, "__init__", "grids.batches")
    rec.wrap(batching, "build_batches", "grids.batches")
    for method in ("overlap", "kinetic", "external_potential",
                   "potential_matrix", "dipole_matrices"):
        rec.wrap(MatrixBuilder, method, "integrals")
    rec.wrap(MultipoleSolver, "__init__", "hartree.init")
    for method in ("expand", "solve", "evaluate"):
        rec.wrap(MultipoleSolver, method, f"hartree.{method}")
    rec.wrap(MultipoleSolver, "hartree_potential", "hartree")
    for method in ("density_on_grid", "potential_matrix", "first_order_dm"):
        rec.wrap(ExecutionBackend, method, f"backends.{method}")
    rec.wrap(scf, "lda_exchange_correlation", "xc")
    rec.wrap(response, "lda_xc_kernel", "xc")
    rec.wrap(scf, "solve_generalized_eigenproblem", "linalg.eigensolver")


def physics_layer_metrics(rec: Recorder, root: int, cycles=None) -> Dict[str, float]:
    """Per-layer metrics of every span below ``root``.

    ``cycles`` is ``(scf_iterations, cpscf_iterations, fill_fraction)``
    when the root ran physics.
    """
    every = totals(rec.spans, root)
    by_top = {top: totals(rec.spans, root, under=top)
              for top in ("setup", "scf", "cpscf")}

    def incl(name, within=None):
        src = every if within is None else by_top[within]
        return src[name].inclusive if name in src else 0.0

    def calls(name):
        return every[name].calls if name in every else 0

    def own(name):
        return every[name].self if name in every else 0.0

    scf_it, cpscf_it, fill = cycles or (0, 0, 1.0)
    return {
        "grids.build_s": incl("grids.build") + incl("grids.batches"),
        "basis.build_s": incl("basis.build"),
        "integrals.s": incl("integrals"),
        "hartree.init_s": incl("hartree.init"),
        "hartree.expand_s": incl("hartree.expand"),
        "hartree.solve_s": incl("hartree.solve"),
        "hartree.evaluate_s": incl("hartree.evaluate"),
        "hartree.scf_s": incl("hartree", "scf"),
        "hartree.cpscf_s": incl("hartree", "cpscf"),
        "hartree.calls": calls("hartree"),
        "backends.density_on_grid_s": incl("backends.density_on_grid"),
        "backends.density_on_grid_calls": calls("backends.density_on_grid"),
        "backends.potential_matrix_s": incl("backends.potential_matrix"),
        "backends.potential_matrix_calls": calls("backends.potential_matrix"),
        "backends.first_order_dm_s": incl("backends.first_order_dm"),
        "backends.first_order_dm_calls": calls("backends.first_order_dm"),
        "backends.fill_fraction": fill,
        "scf.iterations": scf_it,
        "cpscf.iterations": cpscf_it,
        "scf.self_s": own("scf"),
        "cpscf.self_s": own("cpscf"),
        "setup.self_s": own("setup"),
        "xc.s": incl("xc"),
        "linalg.eigensolver_s": incl("linalg.eigensolver"),
    }


def fill_fraction(fills) -> float:
    """Smallest share of basis blocks contracted among backend profiles'
    fill fractions (0 means unscreened, i.e. 1.0)."""
    return min((float(f) for f in fills if f), default=1.0)


def run(workload: str, trace: bool) -> Dict[str, Any]:
    """One ``run_physics()`` with its correctness verdict.

    With ``trace`` the layers are wrapped for this run only and the
    result carries the per-layer metrics and the span-sum check.
    """
    import repro.dft.scf as scf
    from repro.core.simulator import PerturbationSimulator

    structure, settings = _inputs(workload)
    sim = PerturbationSimulator(structure, settings)
    rec = Recorder()
    if trace:
        install_layers(rec)
    else:
        # One wrapped call per run: the set-up inside run_physics() is
        # timed as one more set-up sample at no measurable cost.
        rec.wrap(scf.SCFDriver, "__init__", "setup")
    try:
        with rec.span("run") as root:
            steal0 = steal_seconds()
            t0 = time.perf_counter()
            result = sim.run_physics()
            elapsed = time.perf_counter() - t0
            steal1 = steal_seconds()
    finally:
        rec.uninstall()
    gs = result.ground_state
    problems = check_physics(gs.total_energy, result.polarizability,
                             load_references()[workload])
    out: Dict[str, Any] = {
        "time_to_alpha_s": elapsed,
        "setup_s": totals(rec.spans, root.id)["setup"].inclusive,
        "steal_s": None if steal0 is None else steal1 - steal0,
        "attempted": 1,
        "failed": 1 if problems else 0,
        "problems": problems,
    }
    if trace:
        cycles = (gs.iterations, sum(result.cpscf_iterations_per_direction),
                  fill_fraction([result.backend_profile.screen_fill_fraction]))
        out["layers"] = physics_layer_metrics(rec, root.id, cycles)
        out["layers"]["trace.unspanned_frac"] = unspanned_fraction(
            rec.spans, root.id)
    return out
