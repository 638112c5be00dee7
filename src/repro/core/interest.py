"""Interest measures: Definitions 1-3 of the paper.

* **Segment mass** (Definition 1): the number of POIs within distance
  ``eps`` of the segment that match at least one query keyword.  The
  weighted variant sums POI weights instead of counting (the adaptation the
  paper notes right after the definition).
* **Segment interest** (Definition 2): mass divided by the area of the
  ``eps``-buffer around the segment, ``2 * eps * len(l) + pi * eps**2``.
* **Street interest** (Definition 3): the maximum interest among the
  street's segments.

Two implementations of mass are provided: one vectorised pass that
materialises every ``(segment, cell)`` slot mass of a store layout (the
production path shared by the SOI algorithm, the BL baseline and the
region query) and a brute-force scan, the ground truth of the test
oracle (``tests/oracle.py``) and of the runtime contracts.  The pass
computes no distance: it selects, with the query's keyword mask, rows
of the layout's within-``eps`` incidence
(:class:`~repro.core.state_store.SlotIncidence`), which one distance
kernel call per ``(engine, eps)`` layout built.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable

import numpy as np

from repro.analysis import contracts
from repro.core.state_store import MassSlots, StoreLayout
from repro.obs import tracer as obs_tracer
from repro.obs.tracer import trace_span
from repro.data.poi import POISet
from repro.errors import QueryError
from repro.geometry.distance import points_segment_distance
from repro.index.poi_grid import POIGridIndex
from repro.network.model import RoadNetwork, Segment


def buffer_area(length: float, eps: float) -> float:
    """Area of the ``eps``-buffer around a segment of the given length.

    The denominator of Definition 2: a rectangle of size
    ``2 * eps * length`` plus two half-disks of radius ``eps``.
    """
    return 2.0 * eps * length + math.pi * eps * eps


def validate_k(k: int, name: str = "k") -> None:
    """Raise :class:`~repro.errors.QueryError` unless ``k`` is an integer
    of at least 1.

    Any :class:`numbers.Integral` counts, NumPy integers included, except
    a ``bool``: ``True`` would otherwise be served as ``k = 1``.
    """
    # An exact int skips the numbers.Integral check, which costs ~0.5 us
    # and runs on every result-cache lookup.
    if type(k) is not int and (isinstance(k, bool)
                               or not isinstance(k, numbers.Integral)):
        raise QueryError(f"{name} must be an integer, got {k!r}")
    if k < 1:
        raise QueryError(f"{name} must be at least 1, got {k}")


def validate_query(keywords: Iterable[str], k: int, eps: float) -> frozenset[str]:
    """Common parameter validation for k-SOI queries.

    Returns the normalised keyword set.  Raises
    :class:`~repro.errors.QueryError` for a ``k`` that :func:`validate_k`
    refuses, an ``eps`` that is not a positive finite number, an empty
    keyword set, or keywords given as one ``str``: iterating a string
    would split it into characters, and ``"food shop"`` could mean one
    keyword or two, so the caller must pass a collection.
    """
    from repro.data.keywords import normalize_keywords

    if isinstance(keywords, str):
        raise QueryError(
            f"keywords must be a collection of strings, got the string "
            f"{keywords!r}; pass ({keywords!r},) for one keyword")
    query = normalize_keywords(keywords)
    if not query:
        raise QueryError("k-SOI query requires at least one keyword")
    validate_k(k)
    if not (eps > 0 and math.isfinite(eps)):
        raise QueryError(f"eps must be positive and finite, got {eps}")
    return query


def materialise_slot_masses(
    layout: StoreLayout,
    poi_index: POIGridIndex,
    keywords: frozenset[str],
    weighted: bool = False,
    stats=None,
) -> MassSlots:
    """Definition 1 for every ``(segment, cell)`` slot of ``layout`` in
    one vectorised pass.

    The distance test is the layout's
    :class:`~repro.core.state_store.SlotIncidence`, built once per
    layout: every ``(slot, POI)`` row whose POI lies in the slot's cell
    and within ``layout.eps`` of its segment, slot-major with POI
    positions ascending, each distance rounded as ``np.hypot``, as
    :func:`segment_mass_bruteforce` rounds it.  The pass keeps the rows
    whose POI matches ``keywords``.  A slot's mass counts its kept rows;
    weighted, it sums their weights as ``np.sum`` over the slot's
    within-``eps`` weights in position order (for fewer than eight that
    is the left-to-right sum from 0.0).  Slots whose cell has no
    relevant POI hold 0.0.  Summing a segment's slot masses in slot
    order (:func:`segment_mass`) is exact Definition 1, since every POI
    lies in exactly one cell of ``C_eps(l)`` or in none.

    ``stats`` (an :class:`~repro.core.results.SOIStats` or anything with
    the same attributes) counts a pass that found a relevant slot in
    ``kernel_calls`` and the relevant slots in ``mass_cache_misses``.
    """
    if obs_tracer.ENABLED:
        with trace_span("soi.mass_kernel", slots=layout.num_slots):
            return _materialise_slot_masses(layout, poi_index, keywords,
                                            weighted, stats)
    return _materialise_slot_masses(layout, poi_index, keywords, weighted,
                                    stats)


def _materialise_slot_masses(layout, poi_index, keywords, weighted,
                             stats) -> MassSlots:
    num_slots = layout.num_slots
    incidence = layout.poi_incidence(poi_index)
    relevant = poi_index.relevant_position_mask(keywords)
    # Relevant POIs per layout cell; bin 0 takes the POIs in no cell.
    cell_n = np.bincount(incidence.poi_cell[relevant] + 1,
                         minlength=layout.num_cells + 1)[1:]
    relevant_cells = cell_n > 0
    if not relevant_cells.any():
        return MassSlots(np.zeros(num_slots), layout, relevant_cells)
    keep = np.take(relevant, incidence.poi)
    row_slot = incidence.slot[keep]
    if weighted:
        weights = poi_index.pois.weights[incidence.poi[keep]]
        mass = _run_sums(row_slot, weights, num_slots)
    else:
        mass = np.bincount(row_slot, minlength=num_slots).astype(np.float64)
    slots = MassSlots(mass, layout, relevant_cells)
    if stats is not None:
        stats.kernel_calls += 1
        stats.mass_cache_misses += slots.num_relevant
    return slots


def _run_sums(keys: np.ndarray, values: np.ndarray,
              num_keys: int) -> np.ndarray:
    """``out[key]`` = ``np.sum`` of that key's run of ``values``, for
    ``keys`` sorted ascending; 0.0 for absent keys.

    Runs are grouped by length and each group reduced along the rows of
    one 2-D gather, which applies the same summation to every row that
    ``np.sum`` applies to a 1-D run of that length.
    """
    lengths = np.bincount(keys, minlength=num_keys)
    out = np.zeros(num_keys)
    first = np.cumsum(lengths) - lengths
    present = np.flatnonzero(lengths)
    present = present[np.argsort(lengths[present], kind="stable")]
    widths, begins, counts = np.unique(
        lengths[present], return_index=True, return_counts=True)
    for width, begin, count in zip(widths.tolist(), begins.tolist(),
                                   counts.tolist()):
        group = present[begin:begin + count]
        out[group] = values[first[group][:, None]
                            + np.arange(width)].sum(axis=1)
    return out


def segment_mass(layout: StoreLayout, slots: MassSlots, dense: int) -> float:
    """Definition 1 for the segment at dense position ``dense``: its slot
    masses summed in ascending slot (``cells_of_segment``) order, the one
    order every path settles a mass in."""
    total = 0.0
    for value in slots.mass[layout.slot_offsets[dense]:
                            layout.slot_offsets[dense + 1]]:
        total += value
    return total


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
