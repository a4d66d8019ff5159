"""The reference backend: the full-grid cached basis table.

This is the seed repo's behaviour made explicit: under the builder's
cache limit the whole ``(n_points, n_basis)`` chi table is materialized
once and every phase operation slices per-batch rows out of it —
O(grid) memory, zero re-evaluation.  Over the limit the old code
rebuilt the full table on *every* call; this backend instead falls back
to direct per-batch evaluation (no giant allocation, but still one
evaluation per call — the ``batched`` backend's LRU cache is the real
fix for that regime).
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import ExecutionBackend
from repro.backends.registry import register_backend
from repro.grids.batching import GridBatch


@register_backend("numpy")
class NumpyBackend(ExecutionBackend):
    """Full-grid table backend (the bit-exact reference)."""

    def basis_block(self, batch: GridBatch) -> np.ndarray:
        builder = self._require_bound()
        if builder.table_cache_enabled:
            # Basis evaluation is pointwise, so the table's rows (written
            # per point group) are bitwise identical to a fresh per-batch
            # evaluation — the parity anchor for all backends.
            return builder.basis_values()[batch.point_indices]
        return self._evaluate_block(batch)

    def basis_block_active(self, batch: GridBatch) -> np.ndarray:
        builder = self._require_bound()
        active = self._require_pattern().active_functions[batch.index]
        if builder.table_cache_enabled:
            # Cached full-table rows are *sliced* by the active list —
            # never re-evaluated — so table caching and screening
            # compose: the cache hit survives, only the columns shrink.
            return builder.basis_values()[batch.point_indices][:, active]
        return self._evaluate_block(batch, active=active)
