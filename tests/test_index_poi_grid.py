"""Tests for :mod:`repro.index.poi_grid`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

from repro.data.poi import POI, POISet
from repro.geometry.bbox import BBox
from repro.index.poi_grid import POIGridIndex

from tests import oracle
from tests.conftest import random_pois

EXTENT = BBox(0.0, 0.0, 1.0, 1.0)


def _index() -> POIGridIndex:
    pois = POISet([
        POI(0, 0.05, 0.05, frozenset({"shop"})),
        POI(1, 0.06, 0.04, frozenset({"shop", "food"})),
        POI(2, 0.95, 0.95, frozenset({"food"})),
        POI(3, 0.5, 0.5, frozenset()),
    ])
    return POIGridIndex(pois, EXTENT, cell_size=0.1)


def _bounds_by_cell(index: POIGridIndex, keywords) -> dict:
    """``relevant_count_upper_bounds`` keyed by ``(i, j)`` cell."""
    lin, bound = index.relevant_count_upper_bounds(keywords)
    ny = index.grid.ny
    return {(cell // ny, cell % ny): count
            for cell, count in zip(lin.tolist(), bound.tolist())}


def _cells(index: POIGridIndex) -> list[tuple[int, int]]:
    """The ``(i, j)`` cell of every POI position, from ``cell_lin``."""
    ny = index.grid.ny
    return [(cell // ny, cell % ny) for cell in index.cell_lin.tolist()]


def _in_cell(index: POIGridIndex, cell, positions) -> list[int]:
    """The positions among ``positions`` whose POI lies in ``cell``."""
    cells = _cells(index)
    return [pos for pos in positions if cells[pos] == cell]


class TestCellContents:
    def test_positions_grouped_by_cell(self):
        index = _index()
        everything = range(len(index.pois))
        assert _in_cell(index, (0, 0), everything) == [0, 1]
        assert _in_cell(index, (9, 9), everything) == [2]
        assert _in_cell(index, (3, 3), everything) == []

    def test_occupied_cells(self):
        # note: 0.5 // 0.1 == 4.0 in binary floating point, so the centre
        # POI lands in cell (4, 4) — grid addressing is defined by //.
        assert set(_cells(_index())) == {(0, 0), (9, 9), (4, 4)}


class TestQueries:
    def test_relevant_positions_in_cell(self):
        index = _index()

        def relevant(cell, keywords):
            mask = index.relevant_position_mask(keywords)
            return _in_cell(index, cell, np.flatnonzero(mask).tolist())

        assert relevant((0, 0), ["shop"]) == [0, 1]
        assert relevant((0, 0), ["food"]) == [1]
        assert relevant((5, 5), ["shop"]) == []

    def test_relevant_count_upper_bound_single_keyword_exact(self):
        index = _index()
        # Cell (0, 0) is 0 * ny + 0 = 0 linearised; (9, 9) has no "shop".
        lin, bound = index.relevant_count_upper_bounds(["shop"])
        assert lin.tolist() == [0] and bound.tolist() == [2]
        lin, bound = index.relevant_count_upper_bounds(["zoo"])
        assert lin.tolist() == [] and bound.tolist() == []

    def test_relevant_count_upper_bound_caps_at_cell_size(self):
        index = _index()
        # POI 1 matches both keywords: the sum 2 + 1 = 3 exceeds the true
        # relevant count (2) but is capped by |P_c| = 2.
        assert _bounds_by_cell(index, ["shop", "food"]) == {
            (0, 0): 2, (9, 9): 1}

    def test_candidate_cells(self):
        # The cells SL1 lists: those holding a POI with a query keyword.
        index = _index()
        assert set(_bounds_by_cell(index, ["shop"])) == {(0, 0)}
        assert set(_bounds_by_cell(index, ["food"])) == {(0, 0), (9, 9)}
        assert set(_bounds_by_cell(index, ["zoo"])) == set()

    def test_many_keywords_on_the_finest_grid(self):
        # 2**53 cells, the most a grid may have, and 1,100 keywords: a
        # (keyword, cell) key over the whole grid would overflow int64.
        n = 1100
        pois = POISet([POI(i, 1.5 * i / n, 0.5, frozenset({f"k{i:04d}"}))
                       for i in range(n)])
        index = POIGridIndex(pois, BBox(0.0, 0.0, 2.0, 1.0), 2.0 ** -26)
        assert index.grid.num_cells == 2 ** 53
        cells = oracle.poi_cells(index.grid, pois)
        for pos in range(n):
            assert _bounds_by_cell(index, [f"k{pos:04d}"]) == {cells[pos]: 1}

    def test_total_relevant(self):
        index = _index()
        assert index.total_relevant(["shop"]) == 2
        assert index.total_relevant(["shop", "food"]) == 3
        assert index.total_relevant(["zoo"]) == 0

    @given(random_pois(max_size=30))
    def test_total_relevant_matches_bruteforce(self, pois):
        index = POIGridIndex(pois, BBox(0, 0, 0.02, 0.02), cell_size=0.004)
        for query in (["shop"], ["shop", "bar"], ["zzz"]):
            assert index.total_relevant(query) == \
                len(pois.relevant_positions(query))

    @given(random_pois(max_size=30))
    def test_upper_bound_dominates_exact(self, pois):
        index = POIGridIndex(pois, BBox(0, 0, 0.02, 0.02), cell_size=0.004)
        query = frozenset({"shop", "food", "bar"})
        bounds = _bounds_by_cell(index, query)
        cells = oracle.poi_cells(index.grid, pois)
        for cell in set(cells):
            exact = sum(pois[pos].matches(query)
                        for pos, poi_cell in enumerate(cells)
                        if poi_cell == cell)
            assert bounds.get(cell, 0) >= exact
            assert (cell in bounds) == (exact > 0)

    @given(random_pois(max_size=30))
    def test_every_poi_in_exactly_one_cell(self, pois):
        index = POIGridIndex(pois, BBox(0, 0, 0.02, 0.02), cell_size=0.004)
        assert _cells(index) == oracle.poi_cells(index.grid, pois)
