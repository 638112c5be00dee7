"""CSR packing shared by the cold-path index builders.

:mod:`repro.index.cell_maps`, :mod:`repro.index.poi_grid` and the
:class:`~repro.core.state_store.StoreLayout` each store variable-length
runs as one ``values`` column indexed by an ``offsets`` column, and each
derives the offsets from per-row counts with :func:`counts_to_offsets`.
"""

from __future__ import annotations

import numpy as np


def counts_to_offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: per-row counts to CSR offsets (length n+1)."""
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


__all__ = ["counts_to_offsets"]
