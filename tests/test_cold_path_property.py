"""Property-based equivalence for the vectorised cold-path builders.

The vectorised index construction must be *bit-identical* to its
definition, not merely approximately equal: the batched geometry kernels
against their scalar counterparts, the vectorised + incremental
``eps``-augmentation against the per-segment scalar predicate
``SegmentCellMaps._cells_within`` (both sweep directions, so the filter
and delta cache modes are both exercised), the CSR store layout against
a walk over ``cells_of_segment``, and the POI index's ``(cell, count)``
columns, relevance mask and cell column against every POI's ``cell_of``
and keywords.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.state_store import StoreLayout
from repro.geometry.bbox import BBox
from repro.geometry.distance import (
    _hypot_exact,
    point_segment_distance,
    segment_bbox_mindist,
    segments_bbox_mindist_batched,
)
from repro.index.cell_maps import SegmentCellMaps
from repro.index.grid import UniformGrid
from repro.index.poi_grid import POIGridIndex

from tests import oracle
from tests.conftest import KEYWORD_POOL, random_networks, random_pois

EXTENT = BBox(0.0, 0.0, 0.02, 0.02)
EPS_LADDER = (0.0, 0.0004, 0.001, 0.002)


def _grid(cell_size: float = 0.0015) -> UniformGrid:
    return UniformGrid(EXTENT, cell_size)


# -- batched geometry kernels -------------------------------------------------

finite_coord = st.floats(min_value=-4.0, max_value=4.0,
                         allow_nan=False, allow_infinity=False)


@st.composite
def segment_box_rows(draw):
    """One (segment, box) operand row, biased towards degenerate layouts:
    zero-length segments, endpoints pinned to box corners/edges/interior
    (the scalar kernel's early-return branches)."""
    ax, ay, bx, by = (draw(finite_coord) for _ in range(4))
    if draw(st.booleans()):
        bx, by = ax, ay  # zero-length segment
    x0, x1 = sorted((draw(finite_coord), draw(finite_coord)))
    y0, y1 = sorted((draw(finite_coord), draw(finite_coord)))
    anchor = draw(st.sampled_from(("free", "corner", "edge", "inside")))
    if anchor == "corner":
        ax, ay = x0, y0
    elif anchor == "edge":
        ax = x0  # endpoint exactly on the box's left edge line
    elif anchor == "inside":
        ax, ay = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    return ax, ay, bx, by, x0, y0, x1, y1


@given(rows=st.lists(segment_box_rows(), min_size=1, max_size=32))
@settings(max_examples=60)
def test_batched_bbox_mindist_bit_identical_to_scalar(rows):
    cols = np.array(rows, dtype=np.float64).T
    got = segments_bbox_mindist_batched(*cols)
    want = np.array([
        segment_bbox_mindist(ax, ay, bx, by, BBox(x0, y0, x1, y1))
        for ax, ay, bx, by, x0, y0, x1, y1 in rows], dtype=np.float64)
    assert got.tobytes() == want.tobytes()


_SPECIAL_OPERANDS = (
    0.0, -0.0, 5e-324, 1e-310, 2.0 ** -1022, 2.0 ** -1000, 2.0 ** -999,
    1.0, 3.0, 1e308, 2.0 ** 999, 2.0 ** 1000, math.inf, -math.inf,
)
hypot_operand = st.one_of(
    st.floats(allow_nan=False, allow_infinity=True, width=64),
    st.sampled_from(_SPECIAL_OPERANDS),
)


@given(pairs=st.lists(st.tuples(hypot_operand, hypot_operand),
                      min_size=1, max_size=64))
@settings(max_examples=80)
def test_hypot_exact_bitwise_equals_math_hypot(pairs):
    dx = np.array([a for a, _b in pairs], dtype=np.float64)
    dy = np.array([b for _a, b in pairs], dtype=np.float64)
    got = _hypot_exact(dx, dy)
    want = np.array([math.hypot(a, b) for a, b in pairs], dtype=np.float64)
    assert got.tobytes() == want.tobytes()


def test_hypot_exact_nan_rows():
    got = _hypot_exact(np.array([math.nan, math.nan, math.inf]),
                       np.array([1.0, math.inf, math.nan]))
    assert math.isnan(got[0])
    assert got[1] == math.inf  # IEEE: inf wins over nan
    assert got[2] == math.inf


@given(rows=st.lists(st.tuples(*([finite_coord] * 6)),
                     min_size=1, max_size=32))
@settings(max_examples=40)
def test_points_segments_distance_bit_identical(rows):
    from repro.geometry.distance import _points_segments_distance

    cols = np.array(rows, dtype=np.float64).T
    got = _points_segments_distance(*cols)
    want = np.array([point_segment_distance(*row) for row in rows],
                    dtype=np.float64)
    assert got.tobytes() == want.tobytes()


# -- vectorised + incremental augmentation vs the scalar predicate -----------

def _assert_maps_match_definition(maps: SegmentCellMaps, eps: float) -> None:
    """Every ``C_eps(l)`` equals ``_cells_within`` for its segment, in
    order, and the SL2 count column agrees."""
    counts = maps.augmented_cell_counts_column(eps)
    for pos, seg in enumerate(maps.network.iter_segments()):
        want = maps._cells_within(seg.ax, seg.ay, seg.bx, seg.by, eps)
        assert tuple(maps.cells_of_segment(seg.id, eps)) == want
        assert int(counts[pos]) == len(want)


@given(network=random_networks(), ascending=st.booleans())
@settings(max_examples=25)
def test_incremental_augmentation_matches_scalar_both_orders(
        network, ascending):
    """Ascending sweeps exercise the delta mode (cache growth), descending
    sweeps the filter mode (threshold + window membership) — both must
    reproduce the per-segment scalar predicate exactly."""
    maps = SegmentCellMaps(network, _grid())
    sequence = EPS_LADDER if ascending else EPS_LADDER[::-1]
    for eps in sequence:
        _assert_maps_match_definition(maps, eps)


@given(network=random_networks(),
       eps_pair=st.tuples(st.sampled_from(EPS_LADDER[1:]),
                          st.sampled_from(EPS_LADDER[1:])))
@settings(max_examples=25)
def test_revisited_eps_identical_after_cache_growth(network, eps_pair):
    """Re-querying an ``eps`` after the cache grew past it must return the
    very same CSR object (cached), equal to the scalar predicate."""
    maps = SegmentCellMaps(network, _grid())
    first, second = eps_pair
    before = maps.augmented_csr(first)
    maps.augmented_csr(second)
    again = maps.augmented_csr(first)
    assert again[0] is before[0]
    _assert_maps_match_definition(maps, first)
    _assert_maps_match_definition(maps, second)


@pytest.fixture(scope="module", params=["london", "berlin", "vienna"])
def preset_geometry(request):
    """Network + grid of a scaled-down Figure 4 preset (built once)."""
    from repro.core.soi import SOIEngine
    from repro.datagen import build_preset

    city = build_preset(request.param, 0.1)
    engine = SOIEngine(city.network, city.pois)
    return city.network, engine.cell_maps.grid


@pytest.mark.parametrize("check", [False, True], ids=["plain", "contracts"])
@pytest.mark.parametrize("descending", [False, True], ids=["asc", "desc"])
def test_fig4_preset_maps_match_scalar(preset_geometry, check, descending):
    """Figure 4 presets: the vectorised maps must equal the scalar
    predicate for ``eps`` sweeps in both directions, plain and with
    runtime contracts on (``REPRO_CHECK=1`` semantics, which additionally
    cross-validates a sample in every augment pass)."""
    from repro.analysis import contracts

    network, grid = preset_geometry
    sequence = (0.0005, 0.001)
    if descending:
        sequence = sequence[::-1]
    previous = contracts.ENABLED
    contracts.enable_contracts(check)
    try:
        maps = SegmentCellMaps(network, grid)
        for eps in sequence:
            _assert_maps_match_definition(maps, eps)
    finally:
        contracts.enable_contracts(previous)


# -- store layout vs its definition -------------------------------------------

@given(network=random_networks(), ascending=st.booleans())
@settings(max_examples=25)
def test_store_layout_csr_matches_dict_walk(network, ascending):
    """The CSR-derived layout equals a walk over ``cells_of_segment``.

    Each segment's slot run is its ``C_eps(l)`` in order, ``cells`` lists
    cells by first appearance in the slot stream, and ``cell_group(c)``
    holds exactly the slots of ``c`` (with their dense segments) in
    ascending order; a cell no segment reaches has the empty group.  One
    cell map serves the whole ``eps`` ladder, so layouts over grown and
    filtered caches are both covered.
    """
    maps = SegmentCellMaps(network, _grid())
    sequence = EPS_LADDER if ascending else EPS_LADDER[::-1]
    for eps in sequence:
        layout = StoreLayout(network, maps, eps)
        cells: list[tuple[int, int]] = []
        by_cell: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        slot_cells: list[tuple[int, int]] = []
        offsets = [0]
        for dense, seg in enumerate(network.iter_segments()):
            for cell in maps.cells_of_segment(seg.id, eps):
                if cell not in by_cell:
                    cells.append(cell)
                    by_cell[cell] = ([], [])
                by_cell[cell][0].append(dense)
                by_cell[cell][1].append(len(slot_cells))
                slot_cells.append(cell)
            offsets.append(len(slot_cells))
        assert layout.num_slots == len(slot_cells)
        assert layout.num_cells == len(cells)
        assert layout.cells == cells
        assert layout.cell_index == {c: pos for pos, c in enumerate(cells)}
        assert layout.slot_offsets.tolist() == offsets
        assert layout.slot_cell.tolist() == [layout.cell_index[c]
                                             for c in slot_cells]
        assert layout.cell_counts_list == [
            b - a for a, b in zip(offsets, offsets[1:])]
        for cell, group in by_cell.items():
            segs, slots = layout.cell_group(cell)
            assert (segs, slots) == group
            assert all(type(d) is int for d in segs)
            assert all(type(s) is int for s in slots)
        unknown = (-1, -1)  # grid cells have non-negative coordinates
        assert [list(part) for part in layout.cell_group(unknown)] == [[], []]


# -- POI index columns vs per-POI cells and keywords -------------------------

@given(pois=random_pois(min_size=0, max_size=30))
@settings(max_examples=40)
def test_batched_global_index_matches_per_cell_aggregation(pois):
    """Each keyword's ``(cell, count)`` run is ``I[psi][c]`` aggregated
    cell by cell from every POI's ``cell_of`` and keywords, the SL1
    bounds of multi-keyword queries are ``oracle.sl1_entries``, and the
    relevance mask selects exactly the POIs ``POI.matches``."""
    index = POIGridIndex(pois, EXTENT, 0.003)
    ny = index.grid.ny
    cells = oracle.poi_cells(index.grid, pois)

    def bounds(query) -> list[tuple[tuple[int, int], int]]:
        lin, bound = index.relevant_count_upper_bounds(query)
        return [((cell // ny, cell % ny), count)
                for cell, count in zip(lin.tolist(), bound.tolist())]

    for keyword in KEYWORD_POOL:
        counts = Counter(cell for pos, cell in enumerate(cells)
                         if keyword in pois[pos].keywords)
        assert bounds([keyword]) == sorted(counts.items())
    for size in (1, 2, 3):
        query = KEYWORD_POOL[:size]
        assert bounds(query) == sorted(
            oracle.sl1_entries(index.grid, pois, query))
        mask = index.relevant_position_mask(query)
        assert np.flatnonzero(mask).tolist() == [
            pos for pos in range(len(pois))
            if pois[pos].matches(frozenset(query))]


# -- batched cell assignment vs scalar cell assignment ------------------------

@given(pois=random_pois(min_size=0, max_size=30))
@settings(max_examples=40)
def test_poi_cells_match_scalar_loop(pois):
    """``POIGridIndex.cell_lin`` is every POI's ``cell_of``, linearised."""
    index = POIGridIndex(pois, EXTENT, 0.003)
    ny = index.grid.ny
    assert [(cell // ny, cell % ny) for cell in index.cell_lin.tolist()] \
        == [index.grid.cell_of(poi.x, poi.y) for poi in pois]


@given(points=st.lists(
    st.tuples(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
              st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)),
    min_size=1, max_size=40))
@settings(max_examples=40)
def test_cells_of_batched_matches_cell_of_with_clamping(points):
    grid = _grid()
    xs = np.array([x for x, _y in points], dtype=np.float64)
    ys = np.array([y for _x, y in points], dtype=np.float64)
    i, j = grid.cells_of_batched(xs, ys)
    for pos, (x, y) in enumerate(points):
        assert (int(i[pos]), int(j[pos])) == grid.cell_of(x, y)
