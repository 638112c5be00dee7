"""The ST_Rel+Div algorithm (Algorithm 2).

Greedy MaxSum diversification where each iteration first *filters* grid
cells using the Section 4.2.2 bounds — discarding any cell whose ``mmr``
upper bound falls below the best cell lower bound — and then *refines* the
surviving cells in decreasing upper-bound order, computing exact ``mmr``
only for their photos and shrinking the candidate list as better exact
values are found.

The selected summary is identical to the naive
:class:`~repro.core.describe.greedy.GreedyDescriber` (both maximise exact
``mmr`` with the same smallest-position tie-break); only the amount of work
differs, which is what the Figure 6 experiments measure.

The per-cell bound bookkeeping is kept in flat arrays indexed by cell
slot (one slot per occupied cell, in coordinate order): the grid's slot
columns (rectangles, sizes, members, ``psi_min``/``psi_max``), interned
keyword bitmasks and the selected-independent relevance bounds of
:func:`~repro.core.describe.bounds.relevance_bound_columns` are
materialised once per describer, and each new selection folds its
diversity bounds into running per-cell sums with one vectorised pass
instead of per-cell method calls.  Every formula replicates
:class:`~repro.core.describe.bounds.CellBoundsContext` operation for
operation, so the bounds — and therefore the selection — are
bit-identical to the reference implementation the runtime contracts
check against.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis import contracts
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from repro.obs.slowlog import SLOWLOG
from repro.obs.tracer import perf_now, trace_span
from repro.core.describe.bounds import (
    CellBoundsContext,
    relevance_bound_columns,
)
from repro.core.describe.greedy import _validate
from repro.core.describe.measures import MMREvaluator
from repro.core.describe.profile import StreetProfile
from repro.core.describe.stats import DescribeStats
from repro.index.photo_grid import PhotoGridIndex

__all__ = ["DescribeStats", "STRelDivDescriber"]


class STRelDivDescriber:
    """Bound-accelerated greedy photo selection over a street profile."""

    def __init__(self, profile: StreetProfile,
                 index: PhotoGridIndex | None = None) -> None:
        self.profile = profile
        self.index = index or PhotoGridIndex(
            profile.photos, profile.extent, profile.rho)
        self._bounds = CellBoundsContext(profile, self.index)
        self._build_cell_arrays()
        # Per-cell running sums of the diversity bounds towards the
        # already-selected photos.  The selected set only grows, so each
        # new selection adds one increment per cell — O(cells) per
        # iteration instead of O(cells * |selected|).
        self._div_lo = np.zeros(self._num_cells)
        self._div_hi = np.zeros(self._num_cells)
        # Per-photo fold vectors (Equations 15-18 towards every cell) are
        # selection- and parameter-independent; memoise them across
        # select() calls, like the SOI session mass memos.
        self._fold_cache: dict[
            int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}

    @trace_span("describe.cell_bounds")
    def _build_cell_arrays(self) -> None:
        """Flat per-cell data reused by every :meth:`select` call."""
        index = self.index
        self._num_cells = len(index.coords)
        self._box_x0, self._box_y0 = index.box_x0, index.box_y0
        self._box_x1, self._box_y1 = index.box_x1, index.box_y1
        self._cell_positions = index.cell_positions
        self._cell_sizes = index.sizes.tolist()
        self._psi_min = index.psi_min.tolist()
        self._psi_max = index.psi_max.tolist()
        self._photo_slot = index.photo_slot.tolist()
        # Interned tag bitmasks: cardinalities of mask intersections equal
        # cardinalities of the string-set intersections, which is all the
        # Equation 17/18 closed forms read.
        tag_sets = self.profile.tag_id_sets
        self._photo_masks = [
            sum(1 << tag_id for tag_id in tags) for tags in tag_sets]
        self._cell_masks = [0] * self._num_cells
        for slot, positions in enumerate(self._cell_positions):
            mask = 0
            for pos in positions:
                mask |= self._photo_masks[pos]
            self._cell_masks[slot] = mask
        # Selected-independent relevance bounds (Equations 11-14).
        (self._rel_spatial_lo, self._rel_spatial_hi, self._rel_textual_lo,
         self._rel_textual_hi) = relevance_bound_columns(self.profile, index)
        if contracts.ENABLED:
            contracts.check_describe_cell_columns(self._bounds, (
                self._rel_spatial_lo, self._rel_spatial_hi,
                self._rel_textual_lo, self._rel_textual_hi))

    def select(self, k: int, lam: float = 0.5, w: float = 0.5) -> list[int]:
        """Photo positions of the ``k``-photo summary (same contract as
        :meth:`GreedyDescriber.select`)."""
        positions, _stats = self.select_with_stats(k, lam, w)
        return positions

    def select_with_stats(
        self, k: int, lam: float = 0.5, w: float = 0.5
    ) -> tuple[list[int], DescribeStats]:
        """Like :meth:`select` but also returns work counters."""
        _validate(k, lam, w)
        stats = DescribeStats()
        mark = obs_tracer.TRACER.mark() if obs_tracer.ENABLED else 0
        t0 = perf_now()
        with trace_span("describe.select", method="st_rel_div",
                        k=k, lam=lam, w=w):
            n = len(self.profile)
            evaluator = MMREvaluator(self.profile, lam, w, k)
            selected: list[int] = []
            selected_set: set[int] = set()
            selected_per_cell = [0] * self._num_cells
            alive = np.ones(self._num_cells, dtype=bool)
            self._div_lo = np.zeros(self._num_cells)
            self._div_hi = np.zeros(self._num_cells)
            # The relevance part of every cell's mmr bound is
            # selection-independent; weight it once per query.
            rel_lo = (1.0 - lam) * (w * self._rel_spatial_lo
                                    + (1.0 - w) * self._rel_textual_lo)
            rel_hi = (1.0 - lam) * (w * self._rel_spatial_hi
                                    + (1.0 - w) * self._rel_textual_hi)
            while len(selected) < min(k, n):
                stats.iterations += 1
                with trace_span("describe.round"):
                    best_pos = self._next_candidate(
                        evaluator, rel_lo, rel_hi, alive, selected,
                        selected_set, lam, w, k, stats)
                    if contracts.ENABLED:
                        contracts.check_describe_selection(
                            best_pos, stats.iterations)
                    selected.append(best_pos)
                    selected_set.add(best_pos)
                    evaluator.extend_selection(best_pos)
                    slot = self._photo_slot[best_pos]
                    # Aliveness bookkeeping of the greedy loop, not telemetry.
                    selected_per_cell[slot] += 1  # repro-lint: disable=REP-O502 (algorithmic state)
                    if selected_per_cell[slot] >= self._cell_sizes[slot]:
                        # No unselected photos left in the cell.
                        alive[slot] = False
                    # The last pick's fold would feed no later round (the
                    # next select resets the sums), so it is skipped.
                    if lam > 0 and len(selected) < min(k, n):
                        self._accumulate_div_bounds(best_pos, w)
            stats.pair_div_evals = evaluator.pair_div_evals
        seconds = perf_now() - t0
        obs_metrics.record_describe_query(stats, seconds, method="st_rel_div")
        if SLOWLOG.enabled:
            SLOWLOG.maybe_record(
                "describe",
                {"method": "st_rel_div", "k": k, "lam": lam, "w": w,
                 "photos": len(self.profile)},
                seconds, stats.counters(),
                obs_tracer.TRACER.spans_since(mark)
                if obs_tracer.ENABLED else ())
        return selected, stats

    def _accumulate_div_bounds(self, pos: int, w: float) -> None:
        """Fold the newly selected photo into the per-cell diversity sums.

        Inlines :meth:`CellBoundsContext.spatial_div_bounds` /
        :meth:`~CellBoundsContext.textual_div_bounds` over the flat cell
        arrays: the min/max point-box legs are exact IEEE max/subtract
        operations, the hypotenuses go through the same ``math.hypot`` as
        the scalar kernels, and the Jaccard closed forms divide the same
        integers — so every folded value is bitwise what the reference
        methods return.
        """
        cached = self._fold_cache.get(pos)
        if cached is None:
            with trace_span("describe.fold_bounds"):
                cached = self._fold_vectors(pos)
            self._fold_cache[pos] = cached
        s_lo, s_hi, t_lo, t_hi = cached
        self._div_lo += w * s_lo + (1.0 - w) * t_lo
        self._div_hi += w * s_hi + (1.0 - w) * t_hi

    def _fold_vectors(
        self, pos: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The four per-cell diversity-bound vectors of one photo."""
        px = float(self.profile.photos.xs[pos])
        py = float(self.profile.photos.ys[pos])
        max_d = self.profile.max_d
        # Equations 15/16 legs, vectorised (exact elementwise ops).
        lo_dx = np.maximum(np.maximum(self._box_x0 - px, 0.0),
                           px - self._box_x1).tolist()
        lo_dy = np.maximum(np.maximum(self._box_y0 - py, 0.0),
                           py - self._box_y1).tolist()
        hi_dx = np.maximum(px - self._box_x0, self._box_x1 - px).tolist()
        hi_dy = np.maximum(py - self._box_y0, self._box_y1 - py).tolist()
        s_lo = np.array([math.hypot(dx, dy)
                         for dx, dy in zip(lo_dx, lo_dy)]) / max_d
        s_hi = np.array([math.hypot(dx, dy)
                         for dx, dy in zip(hi_dx, hi_dy)]) / max_d
        # Equations 17/18 closed forms over the interned tag bitmasks.
        tags_mask = self._photo_masks[pos]
        n_r = len(self.profile.tag_id_sets[pos])
        t_lo = [0.0] * self._num_cells
        t_hi = [0.0] * self._num_cells
        for slot, (psi_min, psi_max) in enumerate(zip(self._psi_min,
                                                      self._psi_max)):
            inter = (self._cell_masks[slot] & tags_mask).bit_count()
            diff = self._cell_masks[slot].bit_count() - inter
            if inter < psi_min:
                denom = n_r + psi_min - inter
                t_lo[slot] = 1.0 - inter / denom if denom else 0.0
            else:
                overlap = min(inter, psi_max)
                t_lo[slot] = (1.0 - overlap / n_r if n_r
                              else (0.0 if psi_min == 0 else 1.0))
            if diff >= psi_min:
                t_hi[slot] = 1.0
            else:
                denom = n_r + diff
                t_hi[slot] = (1.0 - (psi_min - diff) / denom
                              if denom else 0.0)
        return s_lo, s_hi, np.array(t_lo), np.array(t_hi)

    # -- one greedy step ------------------------------------------------------

    def _next_candidate(
        self,
        evaluator: MMREvaluator,
        rel_lo: np.ndarray,
        rel_hi: np.ndarray,
        alive: np.ndarray,
        selected: list[int],
        selected_set: set[int],
        lam: float,
        w: float,
        k: int,
        stats: DescribeStats,
    ) -> int:
        # Filtering phase: bound every cell that still holds candidates.
        # Relevance bounds are precomputed per cell; diversity-sum bounds
        # are maintained incrementally in _div_lo / _div_hi.
        with trace_span("describe.filter"):
            div_scale = lam / (k - 1) if (selected and k > 1) else 0.0
            if div_scale:
                lo = rel_lo + div_scale * self._div_lo
                hi = rel_hi + div_scale * self._div_hi
            else:
                lo = rel_lo
                hi = rel_hi
            alive_slots = np.flatnonzero(alive).tolist()
            stats.cells_considered += len(alive_slots)
            mmr_min = lo[alive].max()
            hi_alive = hi[alive].tolist()
            candidates = [(cell_hi, slot)
                          for cell_hi, slot in zip(hi_alive, alive_slots)
                          if cell_hi >= mmr_min]
            stats.cells_pruned_filter += len(alive_slots) - len(candidates)

        # Refinement phase: visit candidate cells by decreasing upper bound
        # (slot order is coordinate order).
        with trace_span("describe.refine"):
            candidates.sort(key=lambda item: (-item[0], item[1]))
            best_value = float("-inf")
            best_pos = -1
            for cell_hi, slot in candidates:
                if cell_hi < best_value:
                    stats.cells_pruned_refine += 1
                    continue
                for pos in self._cell_positions[slot]:
                    if pos in selected_set:
                        continue
                    stats.photos_examined += 1
                    value = evaluator.value(pos)
                    if contracts.ENABLED:
                        contracts.check_describe_candidate(
                            self.profile, self._bounds,
                            self.index.cell(self.index.coords[slot]), pos,
                            selected, lam, w, k, value)
                    if value > best_value or (value == best_value
                                              and pos < best_pos):
                        best_value = value
                        best_pos = pos
        return best_pos
