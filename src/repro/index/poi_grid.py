"""The POI index of Section 3.2.1, as the columns the queries read.

:class:`POIGridIndex` puts every POI in a cell of a uniform grid and
inverts the keyword incidences twice: per keyword, the positions of the
POIs carrying it, and per keyword, its ``(cell, count)`` entries — the
global inverted index ``I[psi][c]`` of the paper.  It answers the
questions a query asks:

* "which POIs match any query keyword?" (exact, as a mask over POI
  positions: Definition 1's relevance test, and Table 4's count), and
* "at most how many POIs in cell ``c`` can match?" (the ``|P_Psi(c)|``
  upper bound of Algorithm 1, line 2: ``min(|P_c|, sum_psi I[psi][c])``),
  answered for every candidate cell at once from the ``(cell, count)``
  columns.

The cell of every POI position is the column :attr:`POIGridIndex.cell_lin`,
which the layouts' within-``eps`` incidences read.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.data.poi import POISet
from repro.geometry.bbox import BBox
from repro.index.csr import counts_to_offsets
from repro.index.grid import UniformGrid


class POIGridIndex:
    """Grid cells and keyword inverted indexes over a POI set.

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

    Attributes
    ----------
    cell_lin:
        Per POI position, the linearised cell ``i * ny + j`` holding it.
    """

    def __init__(self, pois: POISet, extent: BBox, cell_size: float) -> None:
        self.pois = pois
        self.grid = UniformGrid(extent, cell_size)
        vocabulary, offsets, kw = pois.keyword_columns()
        self._kw_vocab = {keyword: kid
                          for kid, keyword in enumerate(vocabulary)}
        incidence_pos = np.repeat(np.arange(len(pois), dtype=np.int64),
                                  np.diff(offsets))
        # Per-keyword postings CSR (positions ascending within each
        # keyword, as the incidences are position-major): the per-query
        # relevance mask reads straight out of it.
        self._kw_post_offsets = counts_to_offsets(
            np.bincount(kw, minlength=len(vocabulary)))
        self._kw_post_values = incidence_pos[
            np.argsort(kw, kind="stable")].astype(np.intp, copy=False)
        i, j = self.grid.cells_of_batched(pois.xs, pois.ys)
        self.cell_lin = i * np.int64(self.grid.ny) + j
        # |P_c| per occupied cell, in ascending linearised order, and the
        # rank of every POI's cell among them.
        self._occupied_lin, rank, self._occupied_count = np.unique(
            self.cell_lin, return_inverse=True, return_counts=True)
        # I[psi][c]: one np.unique over the (keyword, cell rank) pairs of
        # the incidences leaves each keyword's run of cells ascending.
        # Keying by rank, not by cell, keeps the pair key below
        # |vocabulary| * |POIs| on a grid of any size.
        occupied = np.int64(max(1, self._occupied_lin.shape[0]))
        pair, self._kw_cell_count = np.unique(
            kw * occupied + rank.reshape(-1)[incidence_pos],
            return_counts=True)
        self._kw_cell_lin = self._occupied_lin[pair % occupied]
        self._kw_cell_offsets = counts_to_offsets(
            np.bincount(pair // occupied,
                        minlength=len(vocabulary))).tolist()

    def relevant_position_mask(self, keywords: Iterable[str]) -> np.ndarray:
        """Boolean mask over POI positions matching *any* keyword."""
        mask = np.zeros(len(self.pois), dtype=bool)
        offsets = self._kw_post_offsets
        for keyword in set(keywords):  # repro-lint: disable=REP-D102 (boolean OR into the mask is order-independent)
            kid = self._kw_vocab.get(keyword)
            if kid is not None:
                mask[self._kw_post_values[offsets[kid]:offsets[kid + 1]]] \
                    = True
        return mask

    def relevant_count_upper_bounds(
        self, keywords: Iterable[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``|P_Psi(c)| = min(|P_c|, sum_psi I[psi][c])`` (Algorithm 1,
        l.2) of every candidate cell, as ``(cell_lin, bound)`` int64
        columns in ascending linearised-cell order.

        One pass over the keywords' ``(cell, count)`` runs: ``np.unique``
        groups the cells and ``bincount`` sums their counts.  Exact for
        single-keyword queries; an upper bound when a POI matches several
        query keywords.  Every candidate cell holds a matching POI, so
        every bound is positive.
        """
        offsets = self._kw_cell_offsets
        lins: list[np.ndarray] = []
        counts: list[np.ndarray] = []
        for keyword in sorted(set(keywords)):
            kid = self._kw_vocab.get(keyword)
            if kid is not None:
                run = slice(offsets[kid], offsets[kid + 1])
                lins.append(self._kw_cell_lin[run])
                counts.append(self._kw_cell_count[run])
        if not lins:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy()
        cell_lin, inverse = np.unique(np.concatenate(lins),
                                      return_inverse=True)
        # Integer counts summed in float64: exact far below 2**53.
        summed = np.bincount(inverse.reshape(-1),
                             weights=np.concatenate(counts),
                             minlength=cell_lin.shape[0]).astype(np.int64)
        totals = self._occupied_count[
            np.searchsorted(self._occupied_lin, cell_lin)]
        return cell_lin, np.minimum(totals, summed)

    def total_relevant(self, keywords: Iterable[str]) -> int:
        """Exact number of POIs matching any of the keywords (Table 4)."""
        return int(np.count_nonzero(self.relevant_position_mask(keywords)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"POIGridIndex(pois={len(self.pois)}, "
                f"occupied_cells={len(self._occupied_lin)}, "
                f"grid={self.grid!r})")
