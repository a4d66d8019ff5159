"""Grid integration of operator matrices (Eq. 5's H and S, dipoles).

A :class:`MatrixBuilder` binds a basis set to an integration grid and
produces the density-independent matrices once (overlap, kinetic,
nuclear attraction, dipole) plus cheap re-integration of potential
matrices every SCF/CPSCF cycle — the computational pattern of the
paper's "H" phase.  Set-up evaluates the basis once per shell over
point groups (consecutive batches packed under an element budget);
the per-batch structure survives in every contraction's summation
order.

All grid contractions dispatch through the builder's
:class:`~repro.backends.base.ExecutionBackend` (``numpy`` by default),
so the same driver code runs on the full-table reference path, the
batch-streaming LRU path or the priced device-kernel path — bit-exact
across all three.
"""

from __future__ import annotations

import warnings
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.basis.basis_set import BasisSet
from repro.grids.atom_grid import IntegrationGrid
from repro.grids.batching import GridBatch, attach_relevant_atoms, build_batches
from repro.utils.linalg import symmetrize

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backends.base import ExecutionBackend

#: Cache chi(point) tables when n_points * n_basis stays below this.
_CACHE_LIMIT: int = 40_000_000

#: Element budget of one grouped basis evaluation: a point group's
#: gradient block (points x n_basis x 3 float64) stays at or below it.
_GROUP_LIMIT: int = 1_000_000

#: One point group: its concatenated point indices, the sorted union of
#: its batches' atoms, and each member batch with its rows in the block.
_PointGroup = Tuple[np.ndarray, List[int], List[Tuple[GridBatch, slice]]]


class MatrixBuilder:
    """Integrates basis-pair matrix elements over the grid.

    Parameters
    ----------
    basis:
        The structure's NAO basis.
    grid:
        Integration grid with partition weights available.
    batches:
        Optional pre-built batch list; built on demand otherwise.
    backend:
        Execution backend for the grid contractions: a registry name
        (``"numpy"``, ``"batched"``, ``"device"``), a configured
        :class:`~repro.backends.base.ExecutionBackend` instance, or
        ``None`` for the default reference backend.
    cache_limit:
        Override of the full-table element budget (``n_points *
        n_basis``); defaults to the module-level ``_CACHE_LIMIT``.
        Tests and benchmarks lower it to exercise the streaming paths.
    screening_threshold:
        Batch-local basis-screening threshold
        (:mod:`repro.grids.sparsity`).  ``0.0`` (the default) disables
        screening entirely — no pattern is built and every contraction
        runs the exact dense code path, bitwise identical to the
        pre-screening pipeline.  ``> 0`` builds a
        :class:`~repro.grids.sparsity.SparsityPattern` once and every
        layer below (backends, kinetic, reference paths) contracts only
        active functions.
    """

    def __init__(
        self,
        basis: BasisSet,
        grid: IntegrationGrid,
        batches: Optional[List[GridBatch]] = None,
        backend: Union[str, "ExecutionBackend", None] = None,
        cache_limit: Optional[int] = None,
        screening_threshold: float = 0.0,
    ) -> None:
        self.basis = basis
        self.grid = grid
        if grid.partition_weights is None:
            grid.compute_partition_weights()
        if batches is None:
            batches = build_batches(grid)
            batches = attach_relevant_atoms(batches, grid.structure, basis.atom_cutoffs)
        elif batches and not batches[0].relevant_atoms:
            batches = attach_relevant_atoms(batches, grid.structure, basis.atom_cutoffs)
        self.batches = batches
        self._values_cache: Optional[np.ndarray] = None
        self._cache_limit = _CACHE_LIMIT if cache_limit is None else int(cache_limit)
        self._use_cache = grid.n_points * basis.n_basis <= self._cache_limit
        self._thrash_warned = False

        # The pattern must exist before the backend binds: device
        # staging and profile fill counters read it at bind time.
        self.screening_threshold = float(screening_threshold)
        if self.screening_threshold > 0.0:
            from repro.grids.sparsity import build_sparsity_pattern

            self.pattern = build_sparsity_pattern(
                basis, self.batches, self.screening_threshold
            )
        else:
            self.pattern = None

        from repro.backends.registry import resolve_backend

        self.backend = resolve_backend(backend, self)

    @property
    def table_cache_enabled(self) -> bool:
        """Whether the full chi table fits the element budget."""
        return self._use_cache

    # ------------------------------------------------------------------
    # Basis tables
    # ------------------------------------------------------------------
    def basis_values(self) -> np.ndarray:
        """chi_mu at every grid point, ``(n_points, n_basis)`` (cached).

        Evaluated once per shell over each point group of
        :meth:`_point_groups`; bitwise identical to evaluating batch by
        batch over each batch's ``relevant_atoms``.
        """
        if self._values_cache is None:
            if not self._use_cache and not self._thrash_warned:
                self._thrash_warned = True
                warnings.warn(
                    f"basis table ({self.grid.n_points} x {self.basis.n_basis} "
                    f"elements) exceeds the cache limit ({self._cache_limit}); "
                    "every basis_values() call re-evaluates the full grid. "
                    "Use the 'batched' execution backend for bounded-memory "
                    "streaming without re-evaluation.",
                    RuntimeWarning,
                    stacklevel=2,
                )
            values = np.zeros((self.grid.n_points, self.basis.n_basis))
            for idx, atoms, _ in self._point_groups(lambda b: b.relevant_atoms):
                values[idx] = self.basis.evaluate(self.grid.points[idx], atoms=atoms)
            if not self._use_cache:
                return values
            self._values_cache = values
        return self._values_cache

    def _point_groups(
        self, atoms_of: Callable[[GridBatch], Optional[Sequence[int]]]
    ) -> Iterator[_PointGroup]:
        """Consecutive batches packed into point groups under ``_GROUP_LIMIT``.

        ``atoms_of(batch)`` names the atoms to evaluate for a batch, or
        ``None`` to leave the batch out.  A group is evaluated over the
        union of its batches' atoms.  Per-shell evaluation is pointwise,
        so a batch's rows hold, in the columns of its own atoms, the
        values a per-batch evaluation gives, bit for bit.  With
        ``relevant_atoms`` the other columns are zero as well: an atom
        outside that set has no function reaching the batch's bounding
        sphere.  Callers passing a narrower set read only its columns.
        A single batch above the budget forms a group of its own.
        """
        per_point = 3 * self.basis.n_basis
        groups: List[List[GridBatch]] = []
        n = 0
        for b in self.batches:
            if atoms_of(b) is None:
                continue
            if not groups or (n + b.n_points) * per_point > _GROUP_LIMIT:
                groups.append([])
                n = 0
            groups[-1].append(b)
            n += b.n_points
        for group in groups:
            idx = np.concatenate([b.point_indices for b in group])
            atoms = sorted(set().union(*(atoms_of(b) for b in group)))
            ends = np.cumsum([b.n_points for b in group])
            rows = [slice(e - b.n_points, e) for b, e in zip(group, ends)]
            yield idx, atoms, list(zip(group, rows))

    # ------------------------------------------------------------------
    # Density-independent matrices
    # ------------------------------------------------------------------
    def overlap(self) -> np.ndarray:
        """S_mu_nu = <chi_mu | chi_nu>."""
        return self.potential_matrix(np.ones(self.grid.n_points))

    def kinetic(self) -> np.ndarray:
        """T_mu_nu = (1/2) <grad chi_mu | grad chi_nu> (by parts).

        Gradients are evaluated once per point group; each batch's rows
        (and, under screening, its active columns) are sliced out of the
        group block and contracted in batch order, so T is summed exactly
        as a batch-by-batch evaluation would sum it.
        """
        w = self.grid.weights
        t = np.zeros((self.basis.n_basis, self.basis.n_basis))
        pattern = self.pattern

        def atoms_of(b: GridBatch) -> Optional[Sequence[int]]:
            if pattern is None:
                return b.relevant_atoms
            if pattern.active_functions[b.index].size == 0:
                return None
            return pattern.active_atoms[b.index]

        # Gradients are only needed here, once; a group's block is bounded
        # by _GROUP_LIMIT elements, so memory does not grow with the grid.
        for idx, atoms, members in self._point_groups(atoms_of):
            _, grads = self.basis.evaluate_with_gradients(
                self.grid.points[idx], atoms=atoms
            )
            for b, rows in members:
                wb = w[b.point_indices]
                if pattern is not None:
                    act = pattern.active_functions[b.index]
                    gb = grads[rows][:, act, :]
                    sub = np.zeros((act.size, act.size))
                    for k in range(3):
                        gk = gb[:, :, k]
                        sub += gk.T @ (gk * wb[:, None])
                    t[np.ix_(act, act)] += sub
                    continue
                gb = grads[rows]
                for k in range(3):
                    gk = gb[:, :, k]
                    t += gk.T @ (gk * wb[:, None])
        return symmetrize(0.5 * t)

    def nuclear_attraction(self) -> np.ndarray:
        """V_mu_nu with v_ext(r) = -sum_a Z_a / |r - R_a|."""
        return self.potential_matrix(self.external_potential())

    def external_potential(self) -> np.ndarray:
        """v_ext sampled at every grid point."""
        v = np.zeros(self.grid.n_points)
        coords = self.grid.structure.coords
        charges = self.grid.structure.nuclear_charges
        for a in range(self.grid.structure.n_atoms):
            r = np.linalg.norm(self.grid.points - coords[a], axis=1)
            v -= charges[a] / np.maximum(r, 1e-12)
        return v

    def dipole_matrices(self) -> np.ndarray:
        """D^J_mu_nu = <chi_mu | r_J | chi_nu>, shape ``(3, n, n)``."""
        out = np.empty((3, self.basis.n_basis, self.basis.n_basis))
        for j in range(3):
            out[j] = self.potential_matrix(self.grid.points[:, j])
        return out

    # ------------------------------------------------------------------
    # Density-dependent matrices (rebuilt every cycle)
    # ------------------------------------------------------------------
    def potential_matrix(self, potential_values: np.ndarray) -> np.ndarray:
        """V_mu_nu = <chi_mu | v | chi_nu> for a pointwise potential."""
        return self.backend.potential_matrix(potential_values)

    # ------------------------------------------------------------------
    # Backend-free reference paths (the verification seam)
    # ------------------------------------------------------------------
    # These bypass the execution backend entirely: every batch's basis
    # block is evaluated fresh, so the invariant registry can compare a
    # backend's answers against an independent derivation.  Honest
    # backends are bit-exact with these (same batch order, same math).
    # When a screening pattern is active the references honor it by
    # default (so invariants stay bit-tight against screened backends);
    # ``screened=False`` forces the fully dense derivation — that is the
    # seam the ``screening_vs_dense`` invariant compares against.
    def reference_density(
        self, density_matrix: np.ndarray, screened: bool = True
    ) -> np.ndarray:
        """Pointwise density via direct per-batch evaluation."""
        from repro.backends.base import density_block

        p = np.asarray(density_matrix, dtype=float)
        out = np.zeros(self.grid.n_points)
        pattern = self.pattern if screened else None
        for b in self.batches:
            idx = b.point_indices
            if pattern is not None:
                act = pattern.active_functions[b.index]
                if act.size == 0:
                    continue
                phi_b = self.basis.evaluate(
                    self.grid.points[idx], atoms=pattern.active_atoms[b.index]
                )[:, act]
                out[idx] = density_block(phi_b, p[np.ix_(act, act)])
                continue
            phi_b = self.basis.evaluate(self.grid.points[idx], atoms=b.relevant_atoms)
            out[idx] = density_block(phi_b, p)
        return out

    def reference_potential_matrix(
        self, potential_values: np.ndarray, screened: bool = True
    ) -> np.ndarray:
        """``<chi_mu | v | chi_nu>`` via direct per-batch evaluation."""
        from repro.backends.base import potential_block

        wv = self.grid.weights * np.asarray(potential_values, dtype=float)
        acc = np.zeros((self.basis.n_basis, self.basis.n_basis))
        pattern = self.pattern if screened else None
        for b in self.batches:
            idx = b.point_indices
            if pattern is not None:
                act = pattern.active_functions[b.index]
                if act.size == 0:
                    continue
                phi_b = self.basis.evaluate(
                    self.grid.points[idx], atoms=pattern.active_atoms[b.index]
                )[:, act]
                acc[np.ix_(act, act)] += potential_block(phi_b, wv[idx])
                continue
            phi_b = self.basis.evaluate(self.grid.points[idx], atoms=b.relevant_atoms)
            acc += potential_block(phi_b, wv[idx])
        return symmetrize(acc)
