"""Per-cell bounds for ST_Rel+Div (Section 4.2.2, Equations 11-18).

For any photo inside a grid cell ``c`` the four components of the ``mmr``
objective can be bounded using only cell statistics:

* spatial relevance — Equations 11/12 (own-cell count vs 2-cell
  neighbourhood count, both over ``|R_s|``);
* textual relevance — Equations 13/14 (keyword sets ``Psi-`` / ``Psi+``
  built from the cell vocabulary under the ``psi_min`` / ``psi_max``
  cardinality constraints);
* spatial diversity to a fixed photo — Equations 15/16 (min/max point-box
  distance over ``maxD(s)``);
* textual diversity to a fixed photo — Equations 17/18 (closed forms of
  the Jaccard bounds).

The relevance bounds do not depend on the already-selected photos, so
:func:`relevance_bound_columns` computes them for every cell at once, in
column passes over the grid's slot columns, and the describer reuses them
across iterations.  :class:`CellBoundsContext` evaluates every bound for
one cell at a time; it is the scalar reference the runtime contracts and
the tests check the columns against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.describe.profile import StreetProfile
from repro.geometry.distance import point_bbox_maxdist, point_bbox_mindist
from repro.index.photo_grid import PhotoCell, PhotoGridIndex


@dataclass(frozen=True, slots=True)
class RelevanceBounds:
    """Selected-independent relevance bounds of one cell."""

    spatial_lo: float
    spatial_hi: float
    textual_lo: float
    textual_hi: float


class CellBoundsContext:
    """Bound evaluator for one (profile, index) pair."""

    def __init__(self, profile: StreetProfile, index: PhotoGridIndex) -> None:
        self.profile = profile
        self.index = index
        self._rel_cache: dict[tuple[int, int], RelevanceBounds] = {}
        self._bbox_cache: dict[tuple[int, int], object] = {}

    def _cell_bbox(self, coord: tuple[int, int]):
        box = self._bbox_cache.get(coord)
        if box is None:
            box = self.index.cell_bbox(coord)
            self._bbox_cache[coord] = box
        return box

    # -- relevance (Equations 11-14) ---------------------------------------

    def relevance_bounds(self, cell: PhotoCell) -> RelevanceBounds:
        cached = self._rel_cache.get(cell.coord)
        if cached is not None:
            return cached
        bounds = RelevanceBounds(
            spatial_lo=self._spatial_rel_lower(cell),
            spatial_hi=self._spatial_rel_upper(cell),
            textual_lo=self._textual_rel_lower(cell),
            textual_hi=self._textual_rel_upper(cell),
        )
        self._rel_cache[cell.coord] = bounds
        return bounds

    def _spatial_rel_lower(self, cell: PhotoCell) -> float:
        """Equation 11: every photo covers at least its own cell."""
        n = len(self.profile)
        return len(cell) / n if n else 0.0

    def _spatial_rel_upper(self, cell: PhotoCell) -> float:
        """Equation 12: at most everything within two cells.

        Delegated to :meth:`PhotoGridIndex.spatial_reach_count`, which also
        counts boundary photos that floating-point cell assignment can push
        one ring further out than the exact-arithmetic two-cell radius.
        """
        n = len(self.profile)
        if n == 0:
            return 0.0
        return self.index.spatial_reach_count(cell.coord) / n

    def _textual_rel_lower(self, cell: PhotoCell) -> float:
        """Equation 13 via the ``Psi-(c|s)`` construction.

        Choose the ``psi_min`` cheapest keywords: first those outside
        ``Psi_s`` (contributing zero), then — if the cardinality constraint
        forces it — the lowest-frequency keywords of ``c.Psi n Psi_s``.
        """
        phi = self.profile.phi
        if phi.norm1 == 0 or cell.psi_min == 0:
            return 0.0
        outside = sum(1 for kw in cell.keywords if kw not in phi)
        needed = cell.psi_min - outside
        if needed <= 0:
            return 0.0
        matching = sorted(phi[kw] for kw in cell.keywords if kw in phi)
        return sum(matching[:needed]) / phi.norm1

    def _textual_rel_upper(self, cell: PhotoCell) -> float:
        """Equation 14 via the ``Psi+(c|s)`` construction.

        Choose up to ``psi_max`` keywords of ``c.Psi n Psi_s`` with the
        highest frequencies (padding with outside keywords adds zero).
        """
        phi = self.profile.phi
        if phi.norm1 == 0:
            return 0.0
        matching = sorted((phi[kw] for kw in cell.keywords if kw in phi),
                          reverse=True)
        return sum(matching[:cell.psi_max]) / phi.norm1

    # -- diversity to a fixed photo (Equations 15-18) -------------------------

    def spatial_div_bounds(self, cell: PhotoCell, pos: int) -> tuple[float, float]:
        """Equations 15/16: min/max cell distance over ``maxD(s)``."""
        photos = self.profile.photos
        box = self._cell_bbox(cell.coord)
        px = float(photos.xs[pos])
        py = float(photos.ys[pos])
        return (point_bbox_mindist(px, py, box) / self.profile.max_d,
                point_bbox_maxdist(px, py, box) / self.profile.max_d)

    def textual_div_bounds(self, cell: PhotoCell, pos: int) -> tuple[float, float]:
        """Equations 17/18 with guards for empty tag sets."""
        tags = self.profile.keyword_sets[pos]
        n_r = len(tags)
        inter = len(cell.keywords & tags)
        diff = len(cell.keywords) - inter

        # Lower bound (Equation 17): maximise overlap with Psi+(c|r).
        if inter < cell.psi_min:
            denom = n_r + cell.psi_min - inter
            lower = 1.0 - inter / denom if denom else 0.0
        else:
            overlap = min(inter, cell.psi_max)
            lower = 1.0 - overlap / n_r if n_r else (0.0 if cell.psi_min == 0
                                                     else 1.0)

        # Upper bound (Equation 18): minimise overlap with Psi-(c|r).
        if diff >= cell.psi_min:
            upper = 1.0
        else:
            denom = n_r + diff
            upper = 1.0 - (cell.psi_min - diff) / denom if denom else 0.0
        return lower, upper

    # -- combined mmr bounds -------------------------------------------------

    def mmr_bounds(
        self,
        cell: PhotoCell,
        selected: list[int],
        lam: float,
        w: float,
        k: int,
    ) -> tuple[float, float]:
        """Lower/upper bounds on ``mmr`` (Equation 10) for any photo in ``c``.

        Combines the relevance bounds with, for each already-selected
        photo, the diversity bounds — all weighted exactly as the exact
        :func:`~repro.core.describe.measures.mmr_value` weights them.
        """
        rel = self.relevance_bounds(cell)
        rel_lo = w * rel.spatial_lo + (1.0 - w) * rel.textual_lo
        rel_hi = w * rel.spatial_hi + (1.0 - w) * rel.textual_hi
        lo = (1.0 - lam) * rel_lo
        hi = (1.0 - lam) * rel_hi
        if selected and k > 1:
            div_lo = 0.0
            div_hi = 0.0
            for pos in selected:
                s_lo, s_hi = self.spatial_div_bounds(cell, pos)
                t_lo, t_hi = self.textual_div_bounds(cell, pos)
                div_lo += w * s_lo + (1.0 - w) * t_lo
                div_hi += w * s_hi + (1.0 - w) * t_hi
            lo += lam / (k - 1) * div_lo
            hi += lam / (k - 1) * div_hi
        return lo, hi


def relevance_bound_columns(
    profile: StreetProfile, index: PhotoGridIndex
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Equations 11-14 for every occupied cell, in slot order.

    Returns ``(spatial_lo, spatial_hi, textual_lo, textual_hi)``, each
    entry bitwise what :meth:`CellBoundsContext.relevance_bounds` gives
    for that cell: the counts of Equations 11/12 are divided by ``|R_s|``
    as floats, and the Equation 13/14 sums add each cell's ``Phi_s``
    weights in ascending (``Psi-``) or descending (``Psi+``) order from
    0.0, as ``sum(sorted(...))`` does.
    """
    n = len(profile)
    slots = len(index.coords)
    if n == 0:
        empty = np.zeros(slots)
        return empty, empty, empty, empty
    spatial_lo = index.sizes / n
    spatial_hi = index.spatial_reach_counts() / n
    norm = profile.phi.norm1
    vocabulary = len(profile.tag_vocabulary)
    if norm == 0 or vocabulary == 0:
        return spatial_lo, spatial_hi, np.zeros(slots), np.zeros(slots)
    # One row per distinct (cell, tag): the cell vocabulary c.Psi.  A sort
    # and a neighbour test, not np.unique: without an optional output,
    # NumPy 2.4's np.unique imports numpy.ma, 12-24 ms on a worker's first
    # describe.
    pairs = np.sort(index.photo_slot[profile.tag_owner] * vocabulary
                    + profile.tag_ids)
    distinct = np.ones(pairs.shape[0], dtype=bool)
    distinct[1:] = pairs[1:] != pairs[:-1]
    pairs = pairs[distinct]
    cell = pairs // vocabulary
    weight = profile.tag_weights[pairs % vocabulary]
    inside = weight > 0
    outside = np.bincount(cell[~inside], minlength=slots)
    cell, weight = cell[inside], weight[inside]
    first = np.searchsorted(cell, np.arange(slots))
    sums = []
    for sign, take in ((1.0, index.psi_min - outside), (-1.0, index.psi_max)):
        order = np.lexsort((sign * weight, cell))
        rank = np.arange(order.shape[0]) - first[cell[order]]
        kept = order[rank < take[cell[order]]]
        sums.append(np.bincount(cell[kept], weights=weight[kept],
                                minlength=slots) / norm)
    return spatial_lo, spatial_hi, sums[0], sums[1]


#: Paper-facing alias: Section 4.2.2 calls this component the bounds
#: computer.  The runtime contracts and tests patch/reference it under
#: this name.
BoundsComputer = CellBoundsContext
