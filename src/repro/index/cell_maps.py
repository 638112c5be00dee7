"""Cell-to-segment and segment-to-cell maps with ``eps`` augmentation.

Section 3.2.1 prescribes two offline maps — which grid cells each segment
passes through, and which segments pass through each cell — that are
*augmented* at query time, once ``eps`` is known, to cover everything
within distance ``eps``:

* ``C_eps(l)``: all cells whose rectangle is within ``eps`` of segment ``l``
  (so every POI within ``eps`` of ``l`` lies in one of them; the test
  allows the grid's ``rounding_slack``, because a POI on a cell border can
  sit a few ulps outside the rectangle of the cell it is assigned to);
* ``L_eps(c)``: all segments within ``eps`` of cell ``c`` (the inverse map).

Construction is array-native: every segment's ``eps``-expanded MBR is
rasterised into a candidate cell window with one vectorised floor-divide,
the windows are packed as a CSR candidate list, and a single
:func:`~repro.geometry.distance.segments_bbox_mindist_batched` call
confirms the exact Section 3.2.1 predicate for all pairs at once — bit
for bit the same accept/reject decisions as the scalar definition
:meth:`SegmentCellMaps._cells_within`, which ``REPRO_CHECK=1`` re-runs
on a sample of segments.

Augmentation is also *incremental* across ``eps`` values: the confirmed
exact min-distance of every candidate pair is cached up to the largest
``eps`` seen, so a later smaller ``eps`` is a pure threshold filter over
the cached distance column (no geometry at all) and a larger ``eps``
computes distances only for the candidate-ring delta outside the cached
windows.  Confirmed maps are cached per ``eps`` value, since an
interactive system serves many queries with the same threshold; the
per-segment cell tuples are materialised lazily from the CSR on first
access.  The inverse map ``L_eps(c)`` is the cell-major view of the same
CSR that :class:`~repro.core.state_store.StoreLayout` builds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis import contracts
from repro.errors import GridIndexError
from repro.geometry.distance import (
    segment_bbox_mindist,
    segments_bbox_mindist_batched,
)
from repro.index.csr import counts_to_offsets
from repro.index.grid import CellCoord, UniformGrid
from repro.network.model import RoadNetwork
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import trace_span

_KERNEL_CHUNK = 1 << 18
"""Rows per batched-kernel call: bounds the ~20 float64 temporaries the
kernel allocates to tens of MB regardless of candidate count.  Chunking
cannot affect values — the kernel is elementwise."""

_CHECK_SAMPLE = 33
"""Segments re-verified against the scalar kernel under ``REPRO_CHECK=1``."""


class _AugmentCache:
    """Exact distances for every candidate cell at the largest ``eps`` seen.

    One row per (segment, window cell) pair, segment-major with cells in
    row-major window order; ``dist`` holds the exact
    :func:`segment_bbox_mindist` value for the pair.  ``i0/j0/i1/j1`` are
    the per-segment window bounds the rows enumerate.
    """

    __slots__ = ("eps", "i0", "j0", "i1", "j1", "offsets", "seg", "ii",
                 "jj", "dist")

    def __init__(self, eps: float, i0: np.ndarray, j0: np.ndarray,
                 i1: np.ndarray, j1: np.ndarray, offsets: np.ndarray,
                 seg: np.ndarray, ii: np.ndarray, jj: np.ndarray,
                 dist: np.ndarray) -> None:
        self.eps = eps
        self.i0 = i0
        self.j0 = j0
        self.i1 = i1
        self.j1 = j1
        self.offsets = offsets
        self.seg = seg
        self.ii = ii
        self.jj = jj
        self.dist = dist


class _AugmentedEps:
    """Confirmed ``C_eps`` pairs for one ``eps``, as CSR over segments."""

    __slots__ = ("offsets", "ii", "jj", "counts")

    def __init__(self, offsets: np.ndarray, ii: np.ndarray, jj: np.ndarray,
                 counts: np.ndarray) -> None:
        self.offsets = offsets
        self.ii = ii
        self.jj = jj
        self.counts = counts


class SegmentCellMaps:
    """Base and ``eps``-augmented segment/cell adjacency for a network."""

    def __init__(self, network: RoadNetwork, grid: UniformGrid) -> None:
        self.network = network
        self.grid = grid
        self._init_columns(
            [(seg.id, seg.ax, seg.ay, seg.bx, seg.by)
             for seg in network.iter_segments()])
        self._aug_csr: dict[float, _AugmentedEps] = {}
        self._cache: _AugmentCache | None = None
        self._seg_maps: dict[float, dict[int, tuple[CellCoord, ...]]] = {}
        # The offline base map (Section 3.2.1) in CSR form.
        self._augment(0.0)

    def _init_columns(
        self, rows: list[tuple[int, float, float, float, float]]
    ) -> None:
        """Bind the flat segment-endpoint columns the builders operate on."""
        self._n = len(rows)
        self._seg_id_list = [row[0] for row in rows]
        self._seg_ids = np.array(self._seg_id_list, dtype=np.int64)
        self._seg_pos = {sid: pos for pos, sid in
                         enumerate(self._seg_id_list)}
        self._ax = np.array([row[1] for row in rows], dtype=np.float64)
        self._ay = np.array([row[2] for row in rows], dtype=np.float64)
        self._bx = np.array([row[3] for row in rows], dtype=np.float64)
        self._by = np.array([row[4] for row in rows], dtype=np.float64)
        # Segment MBRs, exactly BBox.of_segment's min/max pairs.
        self._mbr_min_x = np.minimum(self._ax, self._bx)
        self._mbr_min_y = np.minimum(self._ay, self._by)
        self._mbr_max_x = np.maximum(self._ax, self._bx)
        self._mbr_max_y = np.maximum(self._ay, self._by)

    # -- base maps (eps = 0) --------------------------------------------------

    def base_cells_of_segment(self, segment_id: int) -> Sequence[CellCoord]:
        """Cells the segment intersects (the offline map)."""
        return self.cells_of_segment(segment_id, 0.0)

    # -- eps-augmented maps ------------------------------------------------------

    def cells_of_segment(
        self, segment_id: int, eps: float
    ) -> Sequence[CellCoord]:
        """``C_eps(l)``: cells within distance ``eps`` of the segment.

        Raises :class:`~repro.errors.GridIndexError` for a segment id the
        maps were not built over.
        """
        aug = self._augment(eps)
        cache = self._seg_maps.setdefault(eps, {})
        got = cache.get(segment_id)
        if got is None:
            pos = self._seg_pos.get(segment_id)
            if pos is None:
                raise GridIndexError(
                    f"segment id {segment_id} is unknown to the cell maps")
            start = int(aug.offsets[pos])
            stop = int(aug.offsets[pos + 1])
            got = tuple(zip(aug.ii[start:stop].tolist(),
                            aug.jj[start:stop].tolist()))
            cache[segment_id] = got
        return got

    def augmented_cell_counts_column(self, eps: float) -> np.ndarray:
        """``|C_eps(l)|`` — the SL2 source-list weights — as an int64
        column aligned with :attr:`segment_ids_column`."""
        return self._augment(eps).counts

    @property
    def segment_ids_column(self) -> np.ndarray:
        """Segment ids in builder (``iter_segments``) order."""
        return self._seg_ids

    @property
    def endpoint_columns(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Segment endpoints ``(ax, ay, bx, by)`` as float64 columns
        aligned with :attr:`segment_ids_column`."""
        return self._ax, self._ay, self._bx, self._by

    def augmented_csr(
        self, eps: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Confirmed ``C_eps`` pairs as ``(offsets, ii, jj)`` CSR columns.

        Row order is canonical: segment-major (builder order), cells
        row-major within each segment's window — the order
        ``cells_of_segment`` tuples list.
        """
        aug = self._augment(eps)
        return aug.offsets, aug.ii, aug.jj

    def cached_distance_columns(self) -> _AugmentCache | None:
        """The incremental distance cache (for snapshot export), if any."""
        return self._cache

    # -- internals ------------------------------------------------------------

    def _augment(self, eps: float) -> _AugmentedEps:
        if eps < 0:
            raise ValueError(f"eps must be non-negative, got {eps}")
        got = self._aug_csr.get(eps)
        if got is not None:
            return got
        if self._cache is None:
            mode = "fresh"
        elif eps <= self._cache.eps:
            mode = "filter"
        else:
            mode = "delta"
        with trace_span("index.augment_eps", eps=eps, mode=mode):
            self._ensure_cache(eps, mode)
            aug = self._filter_cache(eps)
        REGISTRY.inc(f"index.augment.build.{mode}")
        REGISTRY.inc("index.augment.confirmed_pairs",
                     int(aug.ii.shape[0]))
        self._aug_csr[eps] = aug
        if contracts.ENABLED:
            self._check_against_scalar(eps, aug)
        return aug

    # -- batched construction -------------------------------------------------

    def _window(
        self, eps: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-segment candidate cell windows for ``eps``.

        Element-for-element the probe of :meth:`_cells_within`: the
        segment MBR expanded by ``eps`` plus the grid's rounding slack
        (``BBox.expanded``), its corners clamped to the grid
        (``UniformGrid.cell_of``).
        """
        reach = eps + self.grid.rounding_slack
        i0, j0 = self.grid.cells_of_batched(self._mbr_min_x - reach,
                                            self._mbr_min_y - reach)
        i1, j1 = self.grid.cells_of_batched(self._mbr_max_x + reach,
                                            self._mbr_max_y + reach)
        return i0, j0, i1, j1

    def _enumerate_windows(
        self, i0: np.ndarray, j0: np.ndarray,
        i1: np.ndarray, j1: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """CSR-expand the windows into flat candidate rows.

        Returns ``(offsets, seg, ii, jj)``; rows are segment-major with
        cells in row-major window order, matching the ``cells_in_bbox``
        enumeration of :meth:`_cells_within`.
        """
        nj = j1 - j0 + 1
        cnt = (i1 - i0 + 1) * nj
        offsets = counts_to_offsets(cnt)
        total = int(offsets[-1])
        seg = np.repeat(np.arange(self._n, dtype=np.int64), cnt)
        within = np.arange(total, dtype=np.int64) \
            - np.repeat(offsets[:-1], cnt)
        nj_rows = nj[seg]
        ii = i0[seg] + within // nj_rows
        jj = j0[seg] + within % nj_rows
        return offsets, seg, ii, jj

    def _batched_dist(self, seg: np.ndarray, ii: np.ndarray,
                      jj: np.ndarray) -> np.ndarray:
        """Exact segment-to-cell-box distances for flat candidate rows."""
        extent = self.grid.extent
        cs = self.grid.cell_size
        out = np.empty(seg.shape[0], dtype=np.float64)
        for start in range(0, seg.shape[0], _KERNEL_CHUNK):
            stop = start + _KERNEL_CHUNK
            s = seg[start:stop]
            # Box columns exactly as cell_bbox builds them.
            x0 = extent.min_x + ii[start:stop].astype(np.float64) * cs
            y0 = extent.min_y + jj[start:stop].astype(np.float64) * cs
            out[start:stop] = segments_bbox_mindist_batched(
                self._ax[s], self._ay[s], self._bx[s], self._by[s],
                x0, y0, x0 + cs, y0 + cs)
        return out

    def _ensure_cache(self, eps: float, mode: str) -> None:
        """Grow the distance cache to cover ``eps`` (no-op for filters)."""
        if mode == "filter":
            REGISTRY.inc("index.augment.cache_reused")
            return
        i0, j0, i1, j1 = self._window(eps)
        offsets, seg, ii, jj = self._enumerate_windows(i0, j0, i1, j1)
        if mode == "delta":
            cache = self._cache
            assert cache is not None
            inside_old = ((ii >= cache.i0[seg]) & (ii <= cache.i1[seg])
                          & (jj >= cache.j0[seg]) & (jj <= cache.j1[seg]))
            # Window monotonicity in eps makes the old window a sub-
            # rectangle of the new one, so every old row maps to a direct
            # position inside it: reuse its distance, compute only the ring.
            old_nj = cache.j1 - cache.j0 + 1
            old_pos = (cache.offsets[:-1][seg]
                       + (ii - cache.i0[seg]) * old_nj[seg]
                       + (jj - cache.j0[seg]))
            dist = np.empty(ii.shape[0], dtype=np.float64)
            dist[inside_old] = cache.dist[old_pos[inside_old]]
            ring = np.flatnonzero(~inside_old)
            dist[ring] = self._batched_dist(seg[ring], ii[ring], jj[ring])
            REGISTRY.inc("index.augment.delta_pairs", int(ring.shape[0]))
            REGISTRY.inc("index.augment.cache_rows_reused",
                         int(ii.shape[0] - ring.shape[0]))
        else:
            dist = self._batched_dist(seg, ii, jj)
        REGISTRY.inc("index.augment.candidate_pairs", int(ii.shape[0]))
        self._cache = _AugmentCache(eps, i0, j0, i1, j1, offsets, seg, ii,
                                    jj, dist)

    def _filter_cache(self, eps: float) -> _AugmentedEps:
        """Confirm ``C_eps`` from the cache: threshold + ``eps``-window test.

        The window test is required for exact equality with
        :meth:`_cells_within`, not just the threshold: a cell can sit
        exactly at distance ``eps`` from the segment yet outside the
        ``eps``-expanded-MBR window it enumerates (the expansion bounds the
        *MBR*, not the distance), and such a cell must be rejected exactly
        as that loop never visits it.  Window monotonicity in ``eps``
        guarantees every cell inside the ``eps``-window is already a
        cached row.
        """
        cache = self._cache
        assert cache is not None
        reach = eps + self.grid.rounding_slack
        if eps == cache.eps:
            mask = cache.dist <= reach
        else:
            i0, j0, i1, j1 = self._window(eps)
            seg = cache.seg
            mask = ((cache.dist <= reach)
                    & (cache.ii >= i0[seg]) & (cache.ii <= i1[seg])
                    & (cache.jj >= j0[seg]) & (cache.jj <= j1[seg]))
        counts = np.bincount(cache.seg[mask], minlength=self._n)
        return _AugmentedEps(counts_to_offsets(counts), cache.ii[mask],
                             cache.jj[mask], counts.astype(np.int64))

    # -- scalar definition ----------------------------------------------------

    def _cells_within(
        self, ax: float, ay: float, bx: float, by: float, eps: float
    ) -> tuple[CellCoord, ...]:
        """Cells whose rectangle is within ``eps`` of segment ``a-b``.

        Candidates come from the segment MBR expanded by ``eps`` (any closer
        cell must intersect it); each candidate is confirmed with the exact
        segment-to-box distance.  Both tests allow the grid's
        ``rounding_slack``, so the cell of a POI lying exactly ``eps`` away
        on a cell border is kept.
        """
        from repro.geometry.bbox import BBox

        reach = eps + self.grid.rounding_slack
        probe = BBox.of_segment(ax, ay, bx, by).expanded(reach)
        out = []
        for cell in self.grid.cells_in_bbox(probe):
            box = self.grid.cell_bbox(cell)
            if segment_bbox_mindist(ax, ay, bx, by, box) <= reach:  # repro-lint: disable=REP-P405 (scalar reference for the REPRO_CHECK cross-validation)
                out.append(cell)
        return tuple(out)

    # -- REPRO_CHECK cross-validation -------------------------------------------

    def _check_against_scalar(self, eps: float, aug: _AugmentedEps) -> None:
        """Contract: vectorised confirmation equals the scalar kernel loop.

        Re-derives ``C_eps`` with :meth:`_cells_within` for a deterministic
        sample of segments and requires exact (order-sensitive) equality.
        """
        if self._n == 0:
            return
        step = max(1, self._n // _CHECK_SAMPLE)
        offsets = aug.offsets
        for pos in range(0, self._n, step):
            expected = self._cells_within(
                float(self._ax[pos]), float(self._ay[pos]),
                float(self._bx[pos]), float(self._by[pos]), eps)
            start = int(offsets[pos])
            stop = int(offsets[pos + 1])
            got = tuple(zip(aug.ii[start:stop].tolist(),
                            aug.jj[start:stop].tolist()))
            if got != expected:
                raise contracts.ContractViolation(
                    f"[augment-vectorized] C_eps mismatch for segment "
                    f"{self._seg_id_list[pos]} at eps={eps}: vectorised "
                    f"{got} != scalar {expected}")
