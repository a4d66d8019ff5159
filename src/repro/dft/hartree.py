"""Delley-style multipole-expansion Hartree solver (Eqs. 8-9).

The electrostatic potential of a density sampled on the atom-centered
grid is obtained in three stages, exactly mirroring the FHI-aims
pipeline the paper optimizes:

1. **Multipole projection** — the Becke-partitioned density of each atom
   is projected on real spherical harmonics shell by shell, producing
   ``rho_multipole[atom][shell, lm]``.  (At scale, each row of this
   array is what the packed AllReduce of Section 3.2 synthesizes.)
2. **Radial Poisson solve** — per (atom, lm) channel, the radial
   potential is two cumulative integrals computed with the
   Adams-Moulton linear multistep quadrature (the loop that Section 4.4
   collapses), then splined: ``delta_v_hart_part_spl``.
3. **Back-interpolation** — the total potential is the sum of splined
   atom-centered partial potentials inside each atom's radial mesh plus
   analytic ``q_lm / r^(l+1)`` far fields outside it (the
   producer/consumer kernel pair of Section 4.2).  On the grid, the
   density-independent part of that sum is a per-atom stencil built on
   the first grid evaluation: a sparse matrix ``W`` holding the four
   natural-cubic weights of every near point, the harmonics of the near
   points, and the far-field matrix ``F``.  Each call is then one
   sparse product ``W @ [y; y'']`` and one dense ``F @ q_lm`` per atom,
   reusing the geometry the way Alg. 1 reuses spline coefficients.
   Arbitrary points go through :class:`CubicSpline` directly; that path
   is the independent reference for the stencil.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy import sparse

from repro.basis.spline import CubicSpline
from repro.basis.ylm import n_lm, real_spherical_harmonics
from repro.errors import GridError
from repro.grids.atom_grid import IntegrationGrid


def adams_moulton_cumulative(f: np.ndarray, df: np.ndarray) -> np.ndarray:
    """Cumulative integral with the 4th-order Adams-Moulton quadrature.

    Parameters
    ----------
    f:
        Integrand sampled on mesh nodes; shape ``(n, ...)``.
    df:
        ``ds/di`` mesh stretching at each node (same leading length), so
        the integral in the unit-step index variable is ``sum f * df``.

    Returns
    -------
    ``F`` with ``F[k] = int_{node 0}^{node k} f ds``; ``F[0] = 0``.

    The first two steps use 4-point cubic-exact startup formulas, then
    the 4-step Adams-Moulton corrector
    ``F[k] = F[k-1] + (9 g_k + 19 g_{k-1} - 5 g_{k-2} + g_{k-3}) / 24``
    with ``g = f * df`` — every step integrates cubics exactly on
    uniform meshes.
    """
    f = np.asarray(f, dtype=float)
    df = np.asarray(df, dtype=float)
    if f.shape[0] != df.shape[0]:
        raise ValueError("f and df must share their leading length")
    g = f * df.reshape(-1, *([1] * (f.ndim - 1)))
    out = np.zeros_like(g)
    n = g.shape[0]
    if n == 0:
        return out
    if n == 2:
        out[1] = 0.5 * (g[0] + g[1])
        return out
    if n == 3:
        out[1] = (5.0 * g[0] + 8.0 * g[1] - g[2]) / 12.0
        out[2] = out[1] + (5.0 * g[2] + 8.0 * g[1] - g[0]) / 12.0
        return out
    # Cubic-exact startup over the first four nodes.
    out[1] = (9.0 * g[0] + 19.0 * g[1] - 5.0 * g[2] + g[3]) / 24.0
    out[2] = out[1] + (-g[0] + 13.0 * g[1] + 13.0 * g[2] - g[3]) / 24.0
    if n >= 4:
        # The increments are independent; only the running sum is a
        # recurrence.  ``np.add.accumulate`` adds strictly in sequence
        # (no pairwise reordering), so every F[k] = F[k-1] + inc[k] is
        # the same addition, in the same order, as a plain loop.
        inc = (9.0 * g[3:] + 19.0 * g[2:-1] - 5.0 * g[1:-2] + g[:-3]) / 24.0
        out[2:] = np.add.accumulate(np.concatenate([out[2:3], inc]), axis=0)
    return out


@dataclass
class MultipoleExpansion:
    """Per-atom multipole data of one density.

    Attributes
    ----------
    moments:
        ``rho_multipole`` — list over atoms of ``(n_shells, n_lm)``.
    potential_splines:
        ``delta_v_hart_part_spl`` — list over atoms of vector-valued
        radial splines of the partial potentials (``None`` until solved).
    far_moments:
        list over atoms of ``(n_lm,)`` multipole moments
        ``q_lm = int s^(l+2) rho_lm ds`` for the analytic far field.
    l_max:
        Highest multipole angular momentum.
    """

    moments: List[np.ndarray]
    l_max: int
    potential_splines: Optional[List[CubicSpline]] = None
    far_moments: Optional[List[np.ndarray]] = None

    @property
    def rho_multipole_nbytes(self) -> int:
        """Total bytes of the rho_multipole arrays."""
        return int(sum(m.nbytes for m in self.moments))

    @property
    def potential_spline_nbytes(self) -> int:
        """Total bytes of the delta_v_hart_part_spl coefficient tables."""
        if self.potential_splines is None:
            return 0
        return int(sum(s.coefficient_nbytes for s in self.potential_splines))


@dataclass
class GridStencil:
    """Density-independent back-interpolation data of one atom.

    Attributes
    ----------
    near:
        Indices of the grid points inside the atom's radial mesh.
    weights:
        CSR ``(n_near, 2 n_knots)``: per near point, the natural-cubic
        weights ``a, b`` on the two bracketing knot values and
        ``(a^3 - a) h^2/6, (b^3 - b) h^2/6`` on their second
        derivatives, so ``weights @ [y; y'']`` is the spline value.
    y_near:
        ``(n_near, n_lm)`` real harmonics of the near points.
    far:
        Indices of the grid points outside the radial mesh.
    far_field:
        ``(n_far, n_lm)`` matrix ``Y 4 pi / (2l+1) / r^(l+1)``, so
        ``far_field @ q_lm`` is the analytic far field.
    """

    near: np.ndarray
    weights: sparse.csr_matrix
    y_near: np.ndarray
    far: np.ndarray
    far_field: np.ndarray

    @property
    def nbytes(self) -> int:
        """Bytes held by the stencil arrays."""
        w = self.weights
        return int(
            self.near.nbytes + w.data.nbytes + w.indices.nbytes
            + w.indptr.nbytes + self.y_near.nbytes
            + self.far.nbytes + self.far_field.nbytes
        )


class MultipoleSolver:
    """Poisson solver bound to one structure + integration grid.

    The constructor precomputes the density-independent data of the
    projection (angular harmonics on the shared angular rule, per-atom
    point bookkeeping).  The back-interpolation stencil of each atom is
    built on the first grid evaluation, so constructing a solver stays
    cheap, and every later SCF and CPSCF evaluation reuses it.
    """

    def __init__(self, grid: IntegrationGrid, l_max: int) -> None:
        if grid.partition_weights is None:
            grid.compute_partition_weights()
        self.grid = grid
        self.structure = grid.structure
        self.l_max = l_max
        self._n_lm = n_lm(l_max)

        # Per-l prefactors 4 pi / (2l+1), expanded over lm channels.
        ls = np.concatenate(
            [np.full(2 * l + 1, l) for l in range(l_max + 1)]
        ).astype(float)
        self._l_of_lm = ls
        self._pref = 4.0 * np.pi / (2.0 * ls + 1.0)

        # The angular rule is shared by all shells of all atoms; recover
        # it from the first atom's first shell block.
        n_atoms = self.structure.n_atoms
        self._atom_slices: List[slice] = []
        start = 0
        for a in range(n_atoms):
            n_pts = int(np.count_nonzero(grid.atom_index == a))
            self._atom_slices.append(slice(start, start + n_pts))
            start += n_pts
        if start != grid.n_points:
            raise GridError("grid points are not atom-major ordered")

        first = self._atom_slices[0]
        n_shells0 = len(grid.shell_radii[0])
        self._n_ang = (first.stop - first.start) // n_shells0
        ang_dirs = (
            grid.points[first][: self._n_ang] - self.structure.coords[0]
        )
        self._y_ang = real_spherical_harmonics(ang_dirs, l_max)  # (n_ang, n_lm)
        self._w_ang = grid.angular_weights[first][: self._n_ang]

        # Per-atom back-interpolation stencils, built on first use.
        self._stencils: List[Optional[GridStencil]] = [None] * n_atoms

    # ------------------------------------------------------------------
    # Stage 1: multipole projection
    # ------------------------------------------------------------------
    def expand(self, density_values: np.ndarray) -> MultipoleExpansion:
        """Project a grid-sampled density onto ``rho_multipole``."""
        rho = np.asarray(density_values, dtype=float)
        if rho.shape[0] != self.grid.n_points:
            raise GridError(
                f"{rho.shape[0]} density samples for {self.grid.n_points} points"
            )
        part = self.grid.partition_weights
        moments: List[np.ndarray] = []
        for a, sl in enumerate(self._atom_slices):
            n_shells = len(self.grid.shell_radii[a])
            vals = (rho[sl] * part[sl] * np.tile(self._w_ang, n_shells)).reshape(
                n_shells, self._n_ang
            )
            moments.append(vals @ self._y_ang)  # (n_shells, n_lm)
        return MultipoleExpansion(moments=moments, l_max=self.l_max)

    # ------------------------------------------------------------------
    # Stage 2: radial Poisson via Adams-Moulton
    # ------------------------------------------------------------------
    def solve(self, expansion: MultipoleExpansion) -> MultipoleExpansion:
        """Fill the partial-potential splines and far-field moments."""
        splines: List[CubicSpline] = []
        far: List[np.ndarray] = []
        l_arr = self._l_of_lm  # (n_lm,)
        for a, mom in enumerate(expansion.moments):
            r = self.grid.shell_radii[a]  # (n_shells,)
            # Recover ds/di from the stored quadrature construction:
            # radial weight w = r^2 dr/di was used in shells; rebuild
            # dr/di from consecutive ratios of the log-like mesh by
            # finite differences (exact enough for the quadrature).
            dr = np.gradient(r)
            rl = r[:, None] ** (l_arr[None, :] + 2.0)  # s^(l+2)
            inner = adams_moulton_cumulative(mom * rl, dr)
            # Inner boundary: density ~ constant below the first shell.
            inner0 = mom[0] * r[0] ** (l_arr + 3.0) / (l_arr + 3.0)
            inner = inner + inner0[None, :]

            ru = r[:, None] ** (1.0 - l_arr[None, :])  # s^(1-l)
            outer_cum = adams_moulton_cumulative(mom * ru, dr)
            outer_total = outer_cum[-1]
            outer = outer_total[None, :] - outer_cum

            v = self._pref[None, :] * (
                inner / r[:, None] ** (l_arr[None, :] + 1.0)
                + outer * r[:, None] ** l_arr[None, :]
            )
            splines.append(CubicSpline(r, v))
            far.append(inner[-1])
        expansion.potential_splines = splines
        expansion.far_moments = far
        return expansion

    # ------------------------------------------------------------------
    # Stage 3: back-interpolation (the consumer kernel)
    # ------------------------------------------------------------------
    def stencil(self, atom: int) -> GridStencil:
        """The grid back-interpolation stencil of one atom (built once)."""
        st = self._stencils[atom]
        if st is not None:
            return st
        d = self.grid.points - self.structure.coords[atom]
        r = np.linalg.norm(d, axis=1)
        y = real_spherical_harmonics(d, self.l_max)
        x = self.grid.shell_radii[atom]
        n_knots = x.shape[0]
        inside = r <= x[-1]
        near = np.flatnonzero(inside).astype(np.int32)
        far = np.flatnonzero(~inside).astype(np.int32)

        # CubicSpline's knot search and its clamp below the first shell.
        t = r[near]
        idx = np.clip(np.searchsorted(x, t, side="right") - 1, 0, n_knots - 2)
        t = np.maximum(t, x[0])
        x0 = x[idx]
        x1 = x[idx + 1]
        h = x1 - x0
        a = (x1 - t) / h
        b = (t - x0) / h
        h2_6 = h**2 / 6.0
        vals = np.stack([a, b, (a**3 - a) * h2_6, (b**3 - b) * h2_6], axis=1)
        cols = np.stack([idx, idx + 1, n_knots + idx, n_knots + idx + 1], axis=1)
        weights = sparse.csr_matrix(
            (vals.ravel(), cols.ravel().astype(np.int32),
             np.arange(0, 4 * near.size + 1, 4, dtype=np.int32)),
            shape=(near.size, 2 * n_knots),
        )

        rf = r[far]
        far_field = y[far] * (
            self._pref[None, :] / rf[:, None] ** (self._l_of_lm[None, :] + 1.0)
        )
        st = GridStencil(near=near, weights=weights, y_near=y[near],
                         far=far, far_field=far_field)
        self._stencils[atom] = st
        return st

    def evaluate(
        self,
        expansion: MultipoleExpansion,
        points: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Total Hartree potential at grid points (default) or any points.

        Sums splined partial potentials inside each atom's radial mesh
        and the analytic ``q_lm / r^(l+1)`` far field outside.  Grid
        points go through each atom's cached :meth:`stencil`; other
        points are located and splined afresh with :class:`CubicSpline`.
        """
        if expansion.potential_splines is None:
            raise GridError("expansion not solved; call solve() first")
        if points is None:
            v = np.zeros(self.grid.n_points)
            for a, spl in enumerate(expansion.potential_splines):
                st = self.stencil(a)
                vr = st.weights @ np.concatenate([spl.y, spl.m])
                v[st.near] += np.einsum("ij,ij->i", vr, st.y_near)
                v[st.far] += st.far_field @ expansion.far_moments[a]
            return v

        pts = np.atleast_2d(points)
        v = np.zeros(pts.shape[0])
        l_arr = self._l_of_lm
        for a, spl in enumerate(expansion.potential_splines):
            d = pts - self.structure.coords[a]
            r = np.linalg.norm(d, axis=1)
            y = real_spherical_harmonics(d, self.l_max)
            near = r <= self.grid.shell_radii[a][-1]
            if np.any(near):
                v[near] += np.einsum("ij,ij->i", spl(r[near]), y[near])
            far = ~near
            if np.any(far):
                q = expansion.far_moments[a]
                rf = r[far]
                vf = (
                    self._pref[None, :]
                    * q[None, :]
                    / rf[:, None] ** (l_arr[None, :] + 1.0)
                )
                v[far] += np.einsum("ij,ij->i", vf, y[far])
        return v

    def hartree_potential(self, density_values: np.ndarray) -> np.ndarray:
        """Convenience: density -> potential at all grid points."""
        return self.evaluate(self.solve(self.expand(density_values)))
