"""CSR packing helpers shared by the cold-path index builders.

The vectorised builders (:mod:`repro.index.cell_maps`,
:mod:`repro.index.poi_grid`, :mod:`repro.index.photo_grid` and the
:class:`~repro.core.state_store.StoreLayout`) all reduce to the same
primitive: group a column of integer keys in exactly the iteration order
``defaultdict(list)`` accumulation produces — groups numbered by the
*first appearance* of their key, members of each group in ascending
original position (i.e. encounter) order.  A stable argsort delivers
both at once; this module packages it so every builder shares one
audited implementation.
"""

from __future__ import annotations

import numpy as np


def first_appearance_groups(
    keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group equal keys exactly like ``defaultdict(list)`` accumulation.

    Parameters
    ----------
    keys:
        1-D integer array; ``keys[p]`` is the group key of position ``p``.

    Returns
    -------
    ``(order, starts, ends, group_keys)`` where ``order[starts[g]:ends[g]]``
    lists the positions of group ``g`` in ascending position order, groups
    are numbered by the first appearance of their key in ``keys``, and
    ``group_keys[g]`` is that key.  Equivalent to

    >>> groups = defaultdict(list)
    >>> for p, key in enumerate(keys):
    ...     groups[key].append(p)

    with ``groups`` iterated in insertion order — but via one stable
    argsort instead of a Python loop.
    """
    keys = np.asarray(keys)
    order = np.argsort(keys, kind="stable")
    n = keys.shape[0]
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return order.astype(np.int64), empty, empty.copy(), keys[:0]
    sorted_keys = keys[order]
    boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
    ends = np.concatenate((boundaries, np.array([n], dtype=np.int64)))
    # order[starts[g]] is the smallest original position in group g (stable
    # sort keeps positions ascending within a key), so ranking groups by it
    # reproduces first-appearance numbering.
    firsts = order[starts]
    rank = np.argsort(firsts, kind="stable")
    return order, starts[rank], ends[rank], sorted_keys[starts[rank]]


def counts_to_offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: per-row counts to CSR offsets (length n+1)."""
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


__all__ = ["counts_to_offsets", "first_appearance_groups"]
