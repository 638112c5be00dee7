"""Interest measures: Definitions 1-3 of the paper.

* **Segment mass** (Definition 1): the number of POIs within distance
  ``eps`` of the segment that match at least one query keyword.  The
  weighted variant sums POI weights instead of counting (the adaptation the
  paper notes right after the definition).
* **Segment interest** (Definition 2): mass divided by the area of the
  ``eps``-buffer around the segment, ``2 * eps * len(l) + pi * eps**2``.
* **Street interest** (Definition 3): the maximum interest among the
  street's segments.

Two implementations of mass are provided: an indexed one driven by the
``eps``-augmented cell maps (the production path shared by the SOI
algorithm and the BL baseline) and a brute-force scan, the ground truth
of the test oracle (``tests/oracle.py``) and of the runtime contracts.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.analysis import contracts
from repro.obs import tracer as obs_tracer
from repro.obs.tracer import trace_span
from repro.data.poi import POISet
from repro.errors import QueryError
from repro.geometry.distance import (
    point_segment_distance,
    points_segment_distance,
)
from repro.index.cell_maps import SegmentCellMaps
from repro.index.poi_grid import POIGridIndex
from repro.network.model import RoadNetwork, Segment


def buffer_area(length: float, eps: float) -> float:
    """Area of the ``eps``-buffer around a segment of the given length.

    The denominator of Definition 2: a rectangle of size
    ``2 * eps * length`` plus two half-disks of radius ``eps``.
    """
    return 2.0 * eps * length + math.pi * eps * eps


def validate_query(keywords: Iterable[str], k: int, eps: float) -> frozenset[str]:
    """Common parameter validation for k-SOI queries.

    Returns the normalised keyword set.  Raises
    :class:`~repro.errors.QueryError` for ``k < 1``, an ``eps`` that is
    not a positive finite number, or an empty keyword set.
    """
    from repro.data.keywords import normalize_keywords

    query = normalize_keywords(keywords)
    if not query:
        raise QueryError("k-SOI query requires at least one keyword")
    if k < 1:
        raise QueryError(f"k must be at least 1, got {k}")
    if not (eps > 0 and math.isfinite(eps)):
        raise QueryError(f"eps must be positive and finite, got {eps}")
    return query


class RelevantCellCache:
    """Per-query cache of the relevant POIs of each visited cell.

    Several segments share each cell, and the SOI algorithm may visit a
    cell once per nearby segment; materialising the relevant positions and
    their coordinates once per cell turns every subsequent visit into a
    pair of NumPy gathers.  ``hits``/``misses`` count lookups for the
    instrumentation layer (a *miss* is a first visit that materialises the
    entry).
    """

    _EMPTY = (np.empty(0, dtype=np.intp), np.empty(0), np.empty(0),
              np.empty(0))

    def __init__(self, poi_index: POIGridIndex, keywords: frozenset[str]) -> None:
        self._poi_index = poi_index
        self._keywords = keywords
        self._cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray,
                                                 np.ndarray, np.ndarray]] = {}
        self._mask: np.ndarray | None = None
        self.hits = 0
        self.misses = 0

    def get(self, cell: tuple[int, int]):
        """``(positions, xs, ys, weights)`` of the cell's relevant POIs."""
        entry = self._cache.get(cell)
        if entry is None:
            self.misses += 1
            if obs_tracer.ENABLED:
                with trace_span("soi.cell_gather"):
                    entry = self._materialise(cell)
            else:
                entry = self._materialise(cell)
            self._cache[cell] = entry
        else:
            self.hits += 1
        return entry

    def _materialise(self, cell: tuple[int, int]):
        """First-visit gather of a cell's relevant POI arrays.

        The cell's position array is ascending and duplicate-free, so
        masking it yields exactly the sorted deduplicated merge of the
        matching postings.
        """
        mask = self._mask
        if mask is None:
            mask = self._poi_index.relevant_position_mask(self._keywords)
            self._mask = mask
        cell_positions = self._poi_index.cell_positions(cell)
        if cell_positions.size == 0:
            return self._EMPTY
        positions = cell_positions[mask[cell_positions]]
        if positions.size == 0:
            return self._EMPTY
        pois = self._poi_index.pois
        return (positions, pois.xs[positions], pois.ys[positions],
                pois.weights[positions])

    def __len__(self) -> int:
        return len(self._cache)


_SCALAR_CELL_MAX = 4
"""Cells with at most this many relevant POIs take the scalar fast path
(NumPy dispatch overhead dominates tiny cells).  The batched kernel keeps
the same split so batched and per-cell evaluation stay bit-identical."""


def _cell_mass_scalar(
    xs: np.ndarray, ys: np.ndarray, weights: np.ndarray,
    segment: Segment, eps: float, weighted: bool,
) -> float:
    """Scalar-path mass of one tiny cell (shared by both evaluation modes)."""
    total = 0.0
    for i in range(len(xs)):
        d = point_segment_distance(float(xs[i]), float(ys[i]),
                                   segment.ax, segment.ay,
                                   segment.bx, segment.by)
        if d <= eps:
            total += float(weights[i]) if weighted else 1.0
    return total


def segment_mass_in_cell(
    segment: Segment,
    cell: tuple[int, int],
    cache: RelevantCellCache,
    eps: float,
    weighted: bool = False,
    stats=None,
) -> float:
    """Mass contribution of one cell to a segment.

    Exact: every relevant POI of the cell is tested against the segment
    with the vectorised distance kernel.  Because each POI lives in exactly
    one grid cell, summing this over ``C_eps(l)`` gives the exact mass.

    ``stats`` (a :class:`~repro.core.results.SOIStats`, or anything with
    the same counter attributes) receives the kernel counters.
    """
    positions, xs, ys, weights = cache.get(cell)
    n = len(positions)
    if n == 0:
        return 0.0
    if n <= _SCALAR_CELL_MAX:
        if stats is not None:
            stats.scalar_point_evals += n
        return _cell_mass_scalar(xs, ys, weights, segment, eps, weighted)
    if stats is not None:
        stats.kernel_calls += 1
    dists = points_segment_distance(xs, ys, segment.ax, segment.ay,
                                    segment.bx, segment.by)
    within = dists <= eps
    if weighted:
        return float(weights[within].sum())
    return float(np.count_nonzero(within))


def segment_mass_batched(
    segment: Segment,
    cells: Iterable[tuple[int, int]],
    cache: RelevantCellCache,
    eps: float,
    weighted: bool = False,
    stats=None,
) -> float:
    """Mass of a segment over several cells with one vectorised kernel call.

    Concatenates the ``(xs, ys, weights)`` arrays of every non-tiny cell
    and evaluates :func:`points_segment_distance` **once** for the whole
    batch, instead of once per ``(segment, cell)`` pair.  Per-cell
    contributions are then recovered from slices of the batch, so the
    result is bit-identical to summing :func:`segment_mass_in_cell` over
    the same cells in the same order: tiny cells (``<= _SCALAR_CELL_MAX``
    POIs) keep the scalar fast path, larger cells see exactly the same
    element-wise arithmetic whether their arrays are evaluated alone or
    inside a batch.  This is :func:`segment_mass_batched_slots` over a
    throwaway all-unknown memo.
    """
    cells = list(cells)
    n = len(cells)
    return segment_mass_batched_slots(
        segment, cells, range(n), [0.0] * n, [False] * n, cache, eps,
        weighted, stats=stats, count_memo=False)


def segment_mass_batched_slots(
    segment: Segment,
    cells: Sequence[tuple[int, int]],
    slots: Sequence[int],
    slot_mass: list[float],
    slot_known: list[bool],
    cache: RelevantCellCache,
    eps: float,
    weighted: bool = False,
    stats=None,
    count_memo: bool = True,
) -> float:
    """Like :func:`segment_mass_batched`, memoised into slot columns.

    ``slots[i]`` is the store-layout slot of ``(segment, cells[i])``;
    ``slot_mass``/``slot_known`` are the
    :class:`~repro.core.state_store.MassSlots` columns.  Known slots are
    served from the memo; every fresh value is stored there and equals
    :func:`segment_mass_in_cell` for its cell bit for bit.  Contributions
    accumulate in cell order.  ``count_memo=False`` is for ephemeral
    per-run slots: their misses are not attributed to the memo counters.
    """
    if obs_tracer.ENABLED:
        with trace_span("soi.mass_kernel"):
            return _segment_mass_batched_slots_impl(
                segment, cells, slots, slot_mass, slot_known, cache, eps,
                weighted, stats, count_memo)
    return _segment_mass_batched_slots_impl(
        segment, cells, slots, slot_mass, slot_known, cache, eps,
        weighted, stats, count_memo)


def _segment_mass_batched_slots_impl(
    segment: Segment,
    cells: Sequence[tuple[int, int]],
    slots: Sequence[int],
    slot_mass: list[float],
    slot_known: list[bool],
    cache: RelevantCellCache,
    eps: float,
    weighted: bool,
    stats=None,
    count_memo: bool = True,
) -> float:
    contributions: list[float] = []
    # (contribution slot, memo slot, batch start, batch stop) per batched cell.
    pending: list[tuple[int, int, int, int]] = []
    batch_xs: list[np.ndarray] = []
    batch_ys: list[np.ndarray] = []
    batch_weights: list[np.ndarray] = []
    offset = 0
    cached_hits = 0
    fresh = 0
    for cell, slot in zip(cells, slots):
        if slot_known[slot]:
            cached_hits += 1
            contributions.append(float(slot_mass[slot]))
            continue
        positions, xs, ys, weights = cache.get(cell)
        n = len(positions)
        if n > _SCALAR_CELL_MAX:
            pending.append((len(contributions), slot, offset, offset + n))
            batch_xs.append(xs)
            batch_ys.append(ys)
            batch_weights.append(weights)
            offset += n
            contributions.append(0.0)  # patched after the kernel call
            fresh += 1
            continue
        if n == 0:
            value = 0.0
        else:
            if stats is not None:
                stats.scalar_point_evals += n
            value = _cell_mass_scalar(xs, ys, weights, segment, eps, weighted)
        contributions.append(value)
        fresh += 1
        slot_mass[slot] = value
        slot_known[slot] = True
    if pending:
        if stats is not None:
            stats.kernel_calls += 1
        xs_all = np.concatenate(batch_xs)
        ys_all = np.concatenate(batch_ys)
        dists = points_segment_distance(xs_all, ys_all,
                                        segment.ax, segment.ay,
                                        segment.bx, segment.by)
        within = dists <= eps
        weights_all = np.concatenate(batch_weights) if weighted else None
        for pos, slot, start, stop in pending:
            if weighted:
                value = float(weights_all[start:stop]
                              [within[start:stop]].sum())
            else:
                value = float(np.count_nonzero(within[start:stop]))
            contributions[pos] = value
            slot_mass[slot] = value
            slot_known[slot] = True
    if stats is not None:
        stats.mass_cache_hits += cached_hits
        if count_memo:
            stats.mass_cache_misses += fresh
    # Accumulate in cell order, matching the per-cell evaluation exactly.
    total = 0.0
    for value in contributions:
        total += value
    return total


def segment_mass(
    segment: Segment,
    poi_index: POIGridIndex,
    cell_maps: SegmentCellMaps,
    keywords: frozenset[str],
    eps: float,
    weighted: bool = False,
    cache: RelevantCellCache | None = None,
    stats=None,
) -> float:
    """Definition 1: relevant POIs within ``eps`` of the segment.

    Aggregates the ``eps``-augmented cells ``C_eps(l)`` through the
    batched kernel (one vectorised distance evaluation per segment), which
    is bit-identical to summing per-cell contributions.
    """
    if cache is None:
        cache = RelevantCellCache(poi_index, keywords)
    return segment_mass_batched(
        segment, cell_maps.cells_of_segment(segment.id, eps), cache, eps,
        weighted, stats=stats)


def segment_mass_bruteforce(
    segment: Segment,
    pois: POISet,
    keywords: frozenset[str],
    eps: float,
    weighted: bool = False,
) -> float:
    """Reference implementation of Definition 1: full scan, no index."""
    total = 0.0
    for poi in pois:
        if not poi.matches(keywords):
            continue
        dists = points_segment_distance(
            np.array([poi.x]), np.array([poi.y]),
            segment.ax, segment.ay, segment.bx, segment.by)
        if dists[0] <= eps:
            total += poi.weight if weighted else 1.0
    return total


def segment_interest(mass: float, length: float, eps: float) -> float:
    """Definition 2: mass density over the ``eps``-buffer area.

    ``buffer_area`` is positive for every ``eps > 0`` (it includes the
    ``pi * eps**2`` end-caps even for zero-length segments), which is the
    zero-guard of this division; under ``REPRO_CHECK=1`` the contract
    layer asserts that precondition and the nonnegativity of the mass.
    """
    if contracts.ENABLED:
        contracts.check_definition2(mass, length, eps)
    return mass / buffer_area(length, eps)


def street_interest_bruteforce(
    network: RoadNetwork,
    street_id: int,
    pois: POISet,
    keywords: frozenset[str],
    eps: float,
    weighted: bool = False,
) -> float:
    """Definition 3 via brute force: max interest among the street's segments."""
    best = 0.0
    for segment in network.segments_of_street(street_id):
        mass = segment_mass_bruteforce(segment, pois, keywords, eps, weighted)
        best = max(best, segment_interest(mass, segment.length, eps))
    return best
