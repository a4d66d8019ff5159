"""Becke partition-of-unity weights for atom-centered integration.

Overlapping atomic grids are disentangled with Becke's fuzzy-cell scheme
(JCP 88, 2547 (1988)): every grid point receives the weight

    w_a(r) = P_a(r) / sum_b P_b(r) ,

with cell functions P built from iterated smooth step functions of the
elliptical coordinate ``mu_ab`` and Becke's atomic-size adjustment.  The
sum over partner atoms is restricted to a neighbourhood of the owning
atom, so the cost stays near-linear for large systems.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.atoms.structure import Structure
from repro.errors import GridError

#: Atoms farther than this (Bohr) from the owner cannot influence the
#: partition weight noticeably (the step function saturates).
PARTNER_CUTOFF: float = 18.0


def _becke_step(mu: np.ndarray, k: int) -> np.ndarray:
    """Iterated smoothing polynomial p(p(...p(mu))) with p(x)=1.5x-0.5x^3.

    Written as ``f * (1.5 - 0.5 * f * f)``: ``f**3`` goes through
    ``pow``, about ten times slower than two multiplies, and this step
    runs once per partner pair per atom.  The factored form is exactly
    odd, fixes -1, 0 and 1, and stays within 1e-15 of the ``pow`` form.
    """
    f = mu
    for _ in range(k):
        f = f * (1.5 - 0.5 * f * f)
    return f


def _size_adjustment(r_a: float, r_b: float) -> float:
    """Becke's heteronuclear cell-boundary shift a_ab (clamped to 1/2)."""
    chi = r_a / r_b
    u = (chi - 1.0) / (chi + 1.0)
    a = u / (u * u - 1.0)
    return min(max(a, -0.5), 0.5)


def becke_weights(
    structure: Structure,
    points: np.ndarray,
    owner: int,
    smoothing: int = 3,
    partners: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Partition weights of *owner*'s grid points.

    Parameters
    ----------
    structure:
        The molecular system.
    points:
        ``(n, 3)`` coordinates of grid points centred on atom *owner*.
    owner:
        Index of the atom owning these points.
    smoothing:
        Becke's k (number of iterated smoothing passes), typically 3.
    partners:
        Optional explicit partner-atom list; defaults to all atoms within
        :data:`PARTNER_CUTOFF` of the owner.

    Returns
    -------
    ``(n,)`` weights in [0, 1].
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not 0 <= owner < structure.n_atoms:
        raise GridError(f"owner atom {owner} out of range")
    if smoothing < 1:
        raise GridError(f"smoothing must be >= 1, got {smoothing}")

    if partners is None:
        partner_idx = structure.neighbors_within(owner, PARTNER_CUTOFF)
        partner_idx = np.concatenate([[owner], partner_idx])
    else:
        partner_idx = np.asarray(list(partners), dtype=np.int64)
        if owner not in partner_idx:
            partner_idx = np.concatenate([[owner], partner_idx])

    centers = structure.coords[partner_idx]  # (m, 3)
    radii = np.array(
        [structure.elements[a].covalent_radius for a in partner_idx]
    )
    m = partner_idx.shape[0]
    if m == 1:
        return np.ones(points.shape[0])

    # Distances point -> each partner atom: (n, m).
    dist = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
    # Pairwise atom separations: (m, m).
    sep = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)

    cell = np.ones((points.shape[0], m))
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            mu = (dist[:, a] - dist[:, b]) / sep[a, b]
            # Heteronuclear boundary shift.
            adj = _size_adjustment(radii[a], radii[b])
            mu = mu + adj * (1.0 - mu**2)
            mu = np.clip(mu, -1.0, 1.0)
            cell[:, a] *= 0.5 * (1.0 - _becke_step(mu, smoothing))

    total = cell.sum(axis=1)
    total = np.where(total > 1e-300, total, 1.0)
    # Owner is entry 0 of the partner list by construction.
    return cell[:, 0] / total
