"""The combined POI index of Section 3.2.1.

:class:`POIGridIndex` bundles the spatial grid, the per-cell local inverted
indexes and the global inverted index.  It answers the two questions the
SOI algorithm keeps asking:

* "which POIs in cell ``c`` match any query keyword?" (exact, via the local
  index merge), and
* "at most how many POIs in cell ``c`` can match?" (the ``|P_Psi(c)|``
  upper bound of Algorithm 1, line 2: ``min(|P_c|, sum_psi I[psi][c])``).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.data.poi import POISet
from repro.geometry.bbox import BBox
from repro.index.csr import counts_to_offsets
from repro.index.grid import CellCoord, UniformGrid, bucket_points
from repro.index.inverted import CellInvertedIndex, GlobalInvertedIndex


class POIGridIndex:
    """Grid + local inverted indexes + global inverted index over a POI set.

    Parameters
    ----------
    pois:
        The POI collection to index.
    extent:
        Grid extent; normally the road-network MBR (buffered by at least
        ``eps`` so border POIs land in sensible cells).
    cell_size:
        Grid cell side ("arbitrary cell size" per the paper; the presets
        default to ``2 * eps``).
    """

    def __init__(self, pois: POISet, extent: BBox, cell_size: float) -> None:
        self.pois = pois
        self.grid = UniformGrid(extent, cell_size)
        self._cell_positions = bucket_points(self.grid, pois.xs, pois.ys)
        # Local inverted indexes materialise lazily (queries touch only
        # candidate cells), so the cold path never builds posting lists
        # for cells no query asks about.
        self._cell_index: dict[CellCoord, CellInvertedIndex] = {}
        self._index_keywords()

    def _index_keywords(self) -> None:
        """Postings CSR and global index from the keyword-incidence columns.

        The one builder for a fresh index and a snapshot-attached one:
        the incidences of :meth:`~repro.data.table.ItemTable.keyword_columns`
        are paired with each POI's linearised cell, tallied with one
        ``np.unique`` and ordered with one lexsort on
        ``(keyword, -count, cell)`` — the exact ``(-count, cell)`` entry
        order :class:`GlobalInvertedIndex` sorts into, so every
        ``entries``/``count`` lookup is identical to aggregating the local
        indexes with :meth:`GlobalInvertedIndex.from_cells`.  Each
        keyword's entries are built on its first lookup.
        """
        pois = self.pois
        vocabulary, offsets, kw = pois.keyword_columns()
        self._kw_vocab = {keyword: kid
                          for kid, keyword in enumerate(vocabulary)}
        incidence_pos = np.repeat(np.arange(len(pois), dtype=np.int64),
                                  np.diff(offsets))
        # Per-keyword postings CSR (positions ascending within each
        # keyword, as the incidences are position-major): the per-query
        # relevance mask reads straight out of this instead of
        # materialising per-cell inverted indexes.
        self._kw_post_offsets = counts_to_offsets(
            np.bincount(kw, minlength=len(vocabulary)))
        self._kw_post_values = incidence_pos[
            np.argsort(kw, kind="stable")].astype(np.intp, copy=False)
        ny = self.grid.ny
        i, j = self.grid.cells_of_batched(pois.xs, pois.ys)
        span = np.int64(self.grid.nx) * np.int64(ny)
        cell_lin = (i * np.int64(ny) + j)[incidence_pos]
        pair, counts = np.unique(kw * span + cell_lin, return_counts=True)
        pair_kw = pair // span
        pair_cell = pair % span
        pair_i = pair_cell // ny
        pair_j = pair_cell % ny
        order = np.lexsort((pair_j, pair_i, -counts, pair_kw))
        self.global_index = GlobalInvertedIndex.from_columns(
            vocabulary,
            counts_to_offsets(np.bincount(pair_kw,
                                          minlength=len(vocabulary))),
            pair_i[order], pair_j[order], counts[order])

    # -- cell contents ------------------------------------------------------

    def cell_positions(self, cell: CellCoord) -> np.ndarray:
        """Positions of all POIs in the cell (empty array if none)."""
        return self._cell_positions.get(
            cell, np.empty(0, dtype=np.intp))

    def cell_size_of(self, cell: CellCoord) -> int:
        """``|P_c|``: total POIs in the cell."""
        positions = self._cell_positions.get(cell)
        return 0 if positions is None else len(positions)

    def cell_inverted(self, cell: CellCoord) -> CellInvertedIndex | None:
        """The cell's local inverted index, or ``None`` for empty cells.

        Built on first access and cached; the postings are identical to
        an eager build (same positions, same sort, same POI keywords).
        """
        index = self._cell_index.get(cell)
        if index is None:
            positions = self._cell_positions.get(cell)
            if positions is None:
                return None
            index = CellInvertedIndex(
                (pos, self.pois[pos].keywords)
                for pos in positions.tolist())
            self._cell_index[cell] = index
        return index

    def occupied_cells(self) -> Iterator[CellCoord]:
        """Cells containing at least one POI."""
        return iter(self._cell_positions)

    # -- query-side helpers -----------------------------------------------------

    def relevant_position_mask(self, keywords: Iterable[str]) -> np.ndarray:
        """Boolean mask over POI positions matching *any* keyword.

        Intersecting a cell's (ascending) position array with this mask
        yields exactly the sorted, deduplicated sequence
        :meth:`CellInvertedIndex.matching_positions` merges.
        """
        mask = np.zeros(len(self.pois), dtype=bool)
        offsets = self._kw_post_offsets
        for keyword in set(keywords):  # repro-lint: disable=REP-D102 (boolean OR into the mask is order-independent)
            kid = self._kw_vocab.get(keyword)
            if kid is not None:
                mask[self._kw_post_values[offsets[kid]:offsets[kid + 1]]] \
                    = True
        return mask

    def relevant_positions_in_cell(
        self, cell: CellCoord, keywords: Iterable[str]
    ) -> np.ndarray:
        """Positions of POIs in the cell matching *any* keyword (exact)."""
        index = self.cell_inverted(cell)
        if index is None:
            return np.empty(0, dtype=np.intp)
        return np.fromiter(index.matching_positions(keywords),
                           dtype=np.intp)

    def relevant_count_upper_bound(
        self, cell: CellCoord, keywords: Iterable[str]
    ) -> int:
        """``|P_Psi(c)| = min(|P_c|, sum_psi I[psi][c])`` (Algorithm 1, l.2).

        Exact for single-keyword queries; an upper bound when a POI matches
        several query keywords.
        """
        total = self.cell_size_of(cell)
        if total == 0:
            return 0
        summed = sum(self.global_index.count(k, cell)
                     for k in set(keywords))  # repro-lint: disable=REP-D102 (integer counts; sum is order-independent)
        return min(total, summed)

    def candidate_cells(self, keywords: Iterable[str]) -> set[CellCoord]:
        """Cells that can contain at least one relevant POI."""
        return self.global_index.cells_for(set(keywords))

    def total_relevant(self, keywords: Iterable[str]) -> int:
        """Exact number of POIs matching any of the keywords (Table 4)."""
        query = frozenset(keywords)
        total = 0
        for cell in self.candidate_cells(query):
            total += len(self.relevant_positions_in_cell(cell, query))
        return total

    def cell_bbox(self, cell: CellCoord) -> BBox:
        return self.grid.cell_bbox(cell)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"POIGridIndex(pois={len(self.pois)}, "
                f"occupied_cells={len(self._cell_positions)}, grid={self.grid!r})")
