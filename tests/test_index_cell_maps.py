"""Tests for :mod:`repro.index.cell_maps`.

The critical invariant (mass exactness depends on it): every POI within
``eps`` of a segment lies in some cell of ``C_eps(l)``.  The inverse map
``L_eps(c)`` is the ``cell_group`` view of a
:class:`~repro.core.state_store.StoreLayout` over the same maps.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.state_store import StoreLayout
from repro.errors import GridIndexError
from repro.geometry.bbox import BBox
from repro.geometry.distance import point_segment_distance
from repro.index.cell_maps import SegmentCellMaps
from repro.index.grid import UniformGrid
from repro.network.builder import RoadNetworkBuilder

from tests.conftest import random_networks


def _inverse_walk(maps, cells_of) -> dict:
    """``L_eps(c)`` by definition: per cell, the dense positions of the
    segments whose cell list holds it, in segment order."""
    inverse: dict = {}
    for dense, seg in enumerate(maps.network.iter_segments()):
        for cell in cells_of(seg.id):
            inverse.setdefault(cell, []).append(dense)
    return inverse


@pytest.fixture()
def cross_maps(cross_network):
    grid = UniformGrid(cross_network.bbox().expanded(0.5), 0.25)
    return SegmentCellMaps(cross_network, grid)


class TestBaseMaps:
    def test_segment_intersects_its_base_cells(self, cross_maps):
        for seg in cross_maps.network.iter_segments():
            cells = cross_maps.base_cells_of_segment(seg.id)
            assert cells, f"segment {seg.id} has no base cells"
            # endpoints must be covered
            assert cross_maps.grid.cell_of(seg.ax, seg.ay) in cells
            assert cross_maps.grid.cell_of(seg.bx, seg.by) in cells

    def test_base_inverse_map_consistent(self, cross_maps):
        layout = StoreLayout(cross_maps.network, cross_maps, 0.0)
        expected = _inverse_walk(
            cross_maps, cross_maps.base_cells_of_segment)
        for cell, segments in expected.items():
            assert layout.cell_group(cell)[0] == segments

    def test_unknown_cell_has_no_segments(self, cross_maps):
        layout = StoreLayout(cross_maps.network, cross_maps, 0.0)
        segments, slots = layout.cell_group((0, 0))
        assert list(segments) == [] and list(slots) == []


class TestAugmentedMaps:
    def test_augmented_superset_of_base(self, cross_maps):
        for seg in cross_maps.network.iter_segments():
            base = set(cross_maps.base_cells_of_segment(seg.id))
            augmented = set(cross_maps.cells_of_segment(seg.id, eps=0.3))
            assert base <= augmented

    def test_eps_zero_equals_base(self, cross_maps):
        for seg in cross_maps.network.iter_segments():
            assert set(cross_maps.cells_of_segment(seg.id, eps=0.0)) == \
                set(cross_maps.base_cells_of_segment(seg.id))

    def test_inverse_consistency(self, cross_maps):
        eps = 0.3
        layout = StoreLayout(cross_maps.network, cross_maps, eps)
        expected = _inverse_walk(
            cross_maps, lambda sid: cross_maps.cells_of_segment(sid, eps))
        for cell, segments in expected.items():
            assert layout.cell_group(cell)[0] == segments

    def test_augmented_counts_match_map(self, cross_maps):
        eps = 0.3
        counts = cross_maps.augmented_cell_counts_column(eps)
        sids = cross_maps.segment_ids_column
        for seg in cross_maps.network.iter_segments():
            pos = sids.tolist().index(seg.id)
            assert counts[pos] == \
                len(cross_maps.cells_of_segment(seg.id, eps))

    def test_caching_returns_same_object(self, cross_maps):
        first = cross_maps.cells_of_segment(0, 0.3)
        second = cross_maps.cells_of_segment(0, 0.3)
        assert first is second

    def test_negative_eps_raises(self, cross_maps):
        with pytest.raises(ValueError):
            cross_maps.cells_of_segment(0, -0.1)

    def test_unknown_segment_id_raises_grid_index_error(self, cross_maps):
        with pytest.raises(GridIndexError, match="unknown"):
            cross_maps.cells_of_segment(10**9, 0.3)
        with pytest.raises(GridIndexError):
            cross_maps.base_cells_of_segment(-1)


class TestCoverageInvariant:
    @given(random_networks(),
           st.lists(st.tuples(
               st.floats(min_value=-0.002, max_value=0.022),
               st.floats(min_value=-0.002, max_value=0.022)),
               min_size=1, max_size=20))
    def test_points_within_eps_are_covered(self, network, points):
        """Any point within eps of segment l lies in a cell of C_eps(l)."""
        eps = 0.0008
        grid = UniformGrid(network.bbox().expanded(0.005), 0.0015)
        maps = SegmentCellMaps(network, grid)
        for seg in network.iter_segments():
            cells = set(maps.cells_of_segment(seg.id, eps))
            for x, y in points:
                if point_segment_distance(x, y, seg.ax, seg.ay,
                                          seg.bx, seg.by) <= eps:
                    assert grid.cell_of(x, y) in cells

    def test_point_exactly_eps_away_outside_its_cell_rectangle(self):
        """A point ``eps`` above a segment, on a cell border, is assigned
        to a cell whose computed rectangle starts one ulp above it; that
        cell must still be in ``C_eps(l)``."""
        builder = RoadNetworkBuilder()
        a = builder.add_vertex(0.0, 0.004)
        b = builder.add_vertex(0.004, 0.004)
        builder.add_street("top", [a, b])
        network = builder.build()
        grid = UniformGrid(BBox(-0.004, -0.004, 0.008, 0.009), 0.001)
        maps = SegmentCellMaps(network, grid)
        (seg,) = network.iter_segments()
        x, y, eps = 0.0, 0.005, 0.001
        cell = grid.cell_of(x, y)
        assert grid.cell_bbox(cell).min_y > y  # the rounding gap
        assert point_segment_distance(x, y, seg.ax, seg.ay,
                                      seg.bx, seg.by) == eps
        assert cell in maps.cells_of_segment(seg.id, eps)
