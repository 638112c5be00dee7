"""Tests for :mod:`repro.index.photo_grid`."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.data.photo import Photo, PhotoSet
from repro.errors import GridIndexError
from repro.geometry.bbox import BBox
from repro.index.photo_grid import PhotoGridIndex

from tests.conftest import random_photos

EXTENT = BBox(0.0, 0.0, 0.01, 0.01)
RHO = 0.002  # cell side rho/2 = 0.001 -> 10x10 grid


def _index() -> PhotoGridIndex:
    photos = PhotoSet([
        Photo(0, 0.0005, 0.0005, frozenset({"a", "b"})),
        Photo(1, 0.0006, 0.0004, frozenset({"a"})),
        Photo(2, 0.0095, 0.0095, frozenset({"c", "d", "e"})),
        Photo(3, 0.0052, 0.0052, frozenset()),
    ])
    return PhotoGridIndex(photos, EXTENT, RHO)


class TestConstruction:
    def test_cell_side_is_half_rho(self):
        assert _index().grid.cell_size == pytest.approx(RHO / 2)

    def test_invalid_rho(self):
        with pytest.raises(GridIndexError):
            PhotoGridIndex(PhotoSet([]), EXTENT, 0.0)

    def test_occupied_cells(self):
        index = _index()
        assert index.num_occupied_cells == 3


class TestCells:
    def test_cell_contents(self):
        index = _index()
        cell = index.cell((0, 0))
        assert cell is not None
        assert cell.positions == (0, 1)
        assert len(cell) == 2
        assert cell.keywords == frozenset({"a", "b"})

    def test_psi_min_max(self):
        index = _index()
        first = index.cell((0, 0))
        assert (first.psi_min, first.psi_max) == (1, 2)
        tagless = index.cell(index.grid.cell_of(0.0052, 0.0052))
        assert (tagless.psi_min, tagless.psi_max) == (0, 0)

    def test_missing_cell_is_none(self):
        assert _index().cell((3, 7)) is None

    def test_cells_iterates_in_coordinate_order(self):
        coords = [cell.coord for cell in _index().cells()]
        assert coords == sorted(coords)


class TestNeighborhoodCount:
    def test_radius_zero_counts_own_cell(self):
        index = _index()
        assert index.neighborhood_count((0, 0), radius=0) == 2

    def test_radius_two_includes_nearby_cells(self):
        index = _index()
        # photo 3 is at cell (5, 5); nothing within 2 cells of (0, 0)
        assert index.neighborhood_count((0, 0), radius=2) == 2
        assert index.neighborhood_count((4, 4), radius=2) == 1

    @given(random_photos(min_size=1, max_size=30))
    def test_neighborhood_count_bounds_cell_count(self, photos):
        index = PhotoGridIndex(photos, BBox(0, 0, 0.02, 0.02), rho=0.004)
        total = len(photos)
        for cell in index.cells():
            own = index.neighborhood_count(cell.coord, radius=0)
            near = index.neighborhood_count(cell.coord, radius=2)
            assert len(cell) == own <= near <= total

    def test_spatial_reach_matches_neighborhood_in_the_interior(self):
        index = _index()
        for cell in index.cells():
            assert index.spatial_reach_count(cell.coord) == \
                index.neighborhood_count(cell.coord, radius=2)

    def test_spatial_reach_covers_exact_rho_boundary(self):
        # Distance exactly rho with both photos on cell boundaries: the
        # floor-based cell assignment can land them 3 cells apart (their
        # quotients round across an integer in opposite directions), which
        # a bare Chebyshev-2 count misses — the Equation 12 regression
        # behind ST_Rel+Div disagreeing with the naive greedy.
        photos = PhotoSet([Photo(0, 0.0001, 0.0, frozenset()),
                           Photo(1, 0.0, 0.0, frozenset())])
        index = PhotoGridIndex(photos, BBox(-0.001, -0.001, 0.021, 0.021),
                               rho=0.0001)
        for position in range(2):
            coord = index.grid.cell_of(float(photos.xs[position]),
                                       float(photos.ys[position]))
            assert index.spatial_reach_count(coord) == 2

    @given(random_photos(min_size=1, max_size=30))
    def test_every_photo_in_exactly_one_cell(self, photos):
        index = PhotoGridIndex(photos, BBox(0, 0, 0.02, 0.02), rho=0.004)
        seen = []
        for cell in index.cells():
            seen.extend(cell.positions)
        assert sorted(seen) == list(range(len(photos)))
