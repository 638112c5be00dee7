"""Tests for :mod:`repro.index.poi_grid`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

from repro.data.poi import POI, POISet
from repro.geometry.bbox import BBox
from repro.index.poi_grid import POIGridIndex

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


class TestCellContents:
    def test_positions_grouped_by_cell(self):
        index = _index()
        assert index.cell_positions((0, 0)).tolist() == [0, 1]
        assert index.cell_positions((9, 9)).tolist() == [2]
        assert index.cell_positions((3, 3)).tolist() == []

    def test_cell_size_of(self):
        index = _index()
        assert index.cell_size_of((0, 0)) == 2
        assert index.cell_size_of((7, 7)) == 0

    def test_occupied_cells(self):
        # note: 0.5 // 0.1 == 4.0 in binary floating point, so the centre
        # POI lands in cell (4, 4) — grid addressing is defined by //.
        assert set(_index().occupied_cells()) == {(0, 0), (9, 9), (4, 4)}

    def test_cell_inverted_presence(self):
        index = _index()
        assert index.cell_inverted((0, 0)) is not None
        assert index.cell_inverted((1, 1)) is None


class TestQueries:
    def test_relevant_positions_in_cell(self):
        index = _index()
        assert index.relevant_positions_in_cell((0, 0), ["shop"]).tolist() \
            == [0, 1]
        assert index.relevant_positions_in_cell((0, 0), ["food"]).tolist() \
            == [1]
        assert index.relevant_positions_in_cell((5, 5), ["shop"]).tolist() \
            == []

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
        index = _index()
        assert index.candidate_cells(["shop"]) == {(0, 0)}
        assert index.candidate_cells(["food"]) == {(0, 0), (9, 9)}
        assert index.candidate_cells(["zoo"]) == set()

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
        for cell in index.occupied_cells():
            exact = len(index.relevant_positions_in_cell(cell, query))
            assert bounds.get(cell, 0) >= exact
            assert (cell in bounds) == (exact > 0)

    @given(random_pois(max_size=30))
    def test_every_poi_in_exactly_one_cell(self, pois):
        index = POIGridIndex(pois, BBox(0, 0, 0.02, 0.02), cell_size=0.004)
        seen = []
        for cell in index.occupied_cells():
            seen.extend(index.cell_positions(cell).tolist())
        assert sorted(seen) == list(range(len(pois)))
