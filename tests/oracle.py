"""Brute-force references written straight from the paper's definitions.

Every production path is checked against these functions: SOI and BL,
both describers, and the serve path with and without its result cache
(``tests/test_oracle_differential.py``).  They use no index, no cache and
no incremental evaluator:

* :func:`soi_topk` is Definitions 1-3.  Every relevant POI within ``eps``
  of a segment counts toward its mass.  The mass is divided by the
  ``eps``-buffer area, and a street takes the maximum over its segments.
* :func:`greedy_mmr` is the greedy MaxSum loop with Equation 10
  recomputed from scratch for every candidate in every round.
* :class:`StreetContext` is ``R_s``, ``Phi_s``, ``maxD(s)`` and
  Definitions 4 and 6 for one street, and :func:`describe_ids` runs
  :func:`greedy_mmr` over it: the references for the profile's column
  passes.
* :func:`slot_mass` and :func:`sl1_entries` are Definition 1 for one
  ``(segment, cell)`` slot and Algorithm 1, line 2, one cell at a time:
  the references for the vectorised pass that materialises both.
  :func:`poi_cells` is the grid cell of every POI, by ``cell_of``: the
  reference for the POI index's cell column.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

import numpy as np
import pytest

from repro.core.describe.greedy import _validate
from repro.core.describe.measures import mmr_value
from repro.core.describe.profile import StreetProfile
from repro.core.interest import (
    segment_interest,
    segment_mass_bruteforce,
    street_interest_bruteforce,
)
from repro.geometry.distance import points_segment_distance


def soi_topk(network, pois, keywords: Iterable[str], k: int, eps: float,
             weighted: bool = False) -> list[tuple[float, int]]:
    """``[(interest, street_id)]`` of the k-SOIs (Problem 1).

    Zero-interest streets are dropped; ties break by street id.
    """
    query = frozenset(keywords)
    scored = []
    for street_id in network.streets:
        interest = street_interest_bruteforce(
            network, street_id, pois, query, eps, weighted)
        if interest > 0:
            scored.append((interest, street_id))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return scored[:k]


def poi_cells(grid, pois) -> list[tuple[int, int]]:
    """The grid cell of every POI position, by ``grid.cell_of``."""
    return [grid.cell_of(x, y)
            for x, y in zip(pois.xs.tolist(), pois.ys.tolist())]


def slot_mass(segment, cell, grid, pois, keywords: Iterable[str],
              eps: float, weighted: bool = False) -> float:
    """Definition 1 over the relevant POIs of one grid cell.

    The cell's relevant POIs are taken in position order, each distance
    rounded as ``np.hypot`` (as ``segment_mass_bruteforce`` rounds it),
    and the weights within ``eps`` summed by ``np.sum``.
    """
    query = frozenset(keywords)
    members = [pos for pos, poi_cell in enumerate(poi_cells(grid, pois))
               if poi_cell == cell and pois[pos].matches(query)]
    within = points_segment_distance(
        pois.xs[members], pois.ys[members],
        segment.ax, segment.ay, segment.bx, segment.by) <= eps
    if weighted:
        return float(pois.weights[members][within].sum())
    return float(np.count_nonzero(within))


def sl1_entries(grid, pois, keywords: Iterable[str]) -> list[tuple]:
    """SL1 by Algorithm 1, line 2: ``(cell, min(|P_c|, sum_psi
    I[psi][c]))`` for every cell holding a POI with a query keyword,
    ordered by decreasing bound, then cell."""
    query = frozenset(keywords)
    size: Counter = Counter()
    summed: Counter = Counter()
    for poi in pois:
        cell = grid.cell_of(poi.x, poi.y)
        size[cell] += 1
        for keyword in query:
            if keyword in poi.keywords:
                summed[cell] += 1
    return sorted(((cell, min(size[cell], count))
                   for cell, count in summed.items()),
                  key=lambda entry: (-entry[1], entry[0]))


def ranking(results) -> list[tuple[float, int]]:
    """``[(interest, street_id)]`` of engine results, in their order."""
    return [(r.interest, r.street_id) for r in results]


def assert_topk_equivalent(got: Sequence[tuple[float, int]],
                           want: Sequence[tuple[float, int]],
                           tol: float = 1e-9,
                           rel: float | None = None) -> None:
    """Same interests; same streets above the k-th-value tie.

    Problem 1 permits any tie-break at the k-th value, so only streets
    strictly above it must agree.  ``rel`` compares interests within that
    relative error and widens the tie margin to match; without it the
    margin is the absolute ``tol``.
    """
    assert [i for i, _ in got] == pytest.approx([i for i, _ in want],
                                                rel=rel), \
        "interest values differ"
    if not want:
        return
    boundary = want[-1][0]
    if rel is not None:
        tol = max(tol, rel * abs(boundary))
    got_ids = {sid for interest, sid in got if interest > boundary + tol}
    want_ids = {sid for interest, sid in want if interest > boundary + tol}
    assert got_ids == want_ids, "streets above the tie boundary differ"


def assert_best_segments(network, pois, keywords: Iterable[str], eps: float,
                         weighted: bool, results,
                         rel: float | None = None) -> None:
    """Each ``best_segment_id`` is a segment of its street whose
    brute-force interest equals the reported one (within ``rel``)."""
    query = frozenset(keywords)
    for result in results:
        segment = network.segment(result.best_segment_id)
        assert segment.street_id == result.street_id
        exact = segment_interest(
            segment_mass_bruteforce(segment, pois, query, eps, weighted),
            segment.length, eps)
        if rel is None:
            assert result.interest == exact
        else:
            assert result.interest == pytest.approx(exact, rel=rel)


def greedy_mmr(profile: StreetProfile, k: int, lam: float,
               w: float) -> list[int]:
    """Photo positions of the greedy Equation 10 summary.

    Each round scores every remaining photo with :func:`mmr_value`;
    ties keep the smallest position.  ``profile`` is a
    :class:`StreetProfile` or a :class:`StreetContext`.
    """
    _validate(k, lam, w)
    n = len(profile)
    selected: list[int] = []
    remaining = set(range(n))
    while len(selected) < min(k, n):
        best_pos = -1
        best_value = -1.0
        for pos in sorted(remaining):
            value = mmr_value(profile, pos, selected, lam, w, k)
            if value > best_value:
                best_value = value
                best_pos = pos
        selected.append(best_pos)
        remaining.discard(best_pos)
    return selected


class _Coordinates:
    def __init__(self, xs: np.ndarray, ys: np.ndarray) -> None:
        self.xs, self.ys = xs, ys


class StreetContext:
    """One street's describe context, straight from the definitions.

    * ``positions`` is ``R_s``: the photos whose distance to the street,
      the minimum over its segments of ``points_segment_distance``, is at
      most ``eps``, ascending.
    * ``phi`` is ``Phi_s``: each tag counted once per photo of ``R_s``.
    * ``max_d`` is ``maxD(s)``: the diagonal of the street MBR extended
      by ``eps`` on every side.
    * ``spatial_rel`` is Definition 4: the photos of ``R_s`` within
      ``rho`` (``np.hypot`` rounding) over ``|R_s|``, one row at a time.
    * ``textual_rel`` is Definition 6: a photo's tags' ``Phi_s`` in
      sorted tag order, over ``||Phi_s||_1``.

    It carries the attributes :func:`mmr_value` reads (``photos.xs``,
    ``photos.ys``, ``tag_id_sets``, which holds tag strings here: the
    Jaccard distance only counts them), so :func:`greedy_mmr` runs over
    it.
    """

    def __init__(self, network, photos, street_id: int, eps: float,
                 rho: float) -> None:
        segments = network.segments_of_street(street_id)
        dist = np.minimum.reduce([
            points_segment_distance(photos.xs, photos.ys, segment.ax,
                                    segment.ay, segment.bx, segment.by)
            for segment in segments])
        self.positions = np.flatnonzero(dist <= eps).tolist()
        self.ids = [photos[pos].id for pos in self.positions]
        xs = photos.xs[self.positions]
        ys = photos.ys[self.positions]
        self.photos = _Coordinates(xs, ys)
        self.tag_id_sets = [photos[pos].keywords for pos in self.positions]
        self.phi = Counter(tag for tags in self.tag_id_sets for tag in tags)
        ends_x = [x for segment in segments for x in (segment.ax, segment.bx)]
        ends_y = [y for segment in segments for y in (segment.ay, segment.by)]
        self.max_d = math.hypot((max(ends_x) + eps) - (min(ends_x) - eps),
                                (max(ends_y) + eps) - (min(ends_y) - eps))
        n = len(self.positions)
        self.spatial_rel = np.array([
            np.count_nonzero(np.hypot(xs - xs[pos], ys - ys[pos]) <= rho) / n
            for pos in range(n)], dtype=np.float64)
        norm = sum(self.phi.values())
        self.textual_rel = np.array([
            sum(self.phi[tag] for tag in sorted(tags)) / norm if norm
            else 0.0 for tags in self.tag_id_sets], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.positions)


def describe_ids(network, photos, street_id: int, k: int, eps: float,
                 lam: float, w: float, rho: float) -> list[int]:
    """Photo ids of a street's ``k``-photo summary (Problem 2)."""
    context = StreetContext(network, photos, street_id, eps, rho)
    return [context.ids[pos] for pos in greedy_mmr(context, k, lam, w)]
