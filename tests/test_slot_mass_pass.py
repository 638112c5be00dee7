"""The one-pass materialisation of SL1 and every slot mass.

:class:`~repro.core.source_lists.CellBounds` and
:func:`~repro.core.interest.materialise_slot_masses` build, for one
``(Psi, eps, weighted)``, every SL1 entry and every ``(segment, cell)``
slot mass a k-SOI run can read.  Each must equal the per-cell and
per-slot references of ``tests/oracle.py`` (Algorithm 1, line 2 and
Definition 1) exactly, floats included.  The cities here always hold:

* a cluster of 17-24 POIs within 0.0001 of one point, every one tagged
  ``shop`` like every query, so at least one cell holds more than four
  relevant POIs, and isolated POIs in cells of one to four;
* POIs exactly ``eps`` away from a street on a cell border (for the
  matching ``eps`` and cell size draws);
* a zero-length segment inside the cluster;
* POIs carrying several query keywords, where ``min(|P_c|, sum)`` caps
  the SL1 bound;
* weights drawn from {0.1, 0.3, 0.7, 1.3}.

The module runs plain and with the runtime contracts enabled.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import contracts
from repro.core.interest import buffer_area, materialise_slot_masses
from repro.core.soi import SOIEngine
from repro.core.source_lists import CellBounds
from repro.data.poi import POI, POISet
from repro.geometry.distance import (
    point_segment_distance,
    points_segment_distance,
)
from repro.network.model import RoadNetwork, Segment, Street, Vertex
from repro.serve.server import SOIRequest, serve_request

from tests import oracle

WEIGHTS = (0.1, 0.3, 0.7, 1.3)
TAGS = ("shop", "food", "bar")


@pytest.fixture(params=[False, True], ids=["plain", "contracts"],
                autouse=True)
def _maybe_contracts(request):
    """Run every test in this module with contracts off and on."""
    previous = contracts.ENABLED
    if request.param:
        contracts.enable_contracts()
    try:
        yield
    finally:
        contracts.enable_contracts(previous)


def _slot_cells(layout) -> list[tuple[int, int]]:
    """The cell of every slot of ``layout``, in slot order."""
    return [layout.cells[cell] for cell in layout.slot_cell.tolist()]


def _frame_with_dot(x: float, y: float) -> RoadNetwork:
    """Four streets on the square (0, 0)-(0.004, 0.004) and a street of
    one zero-length segment at ``(x, y)``."""
    corners = [(0.0, 0.0), (0.004, 0.0), (0.0, 0.004), (0.004, 0.004)]
    vertices = [Vertex(vid, cx, cy) for vid, (cx, cy) in enumerate(corners)]
    vertices += [Vertex(4, x, y), Vertex(5, x, y)]
    ends = [(0, 1), (2, 3), (0, 2), (1, 3), (4, 5)]
    segments = [Segment(sid, sid, u, v, vertices[u].x, vertices[u].y,
                        vertices[v].x, vertices[v].y)
                for sid, (u, v) in enumerate(ends)]
    names = ["H0", "H1", "V0", "V1", "Dot"]
    streets = [Street(sid, name, (sid,)) for sid, name in enumerate(names)]
    return RoadNetwork(vertices, segments, streets)


@st.composite
def pass_cities(draw):
    """``(network, pois)`` holding every case the module docstring lists."""
    cx = draw(st.floats(min_value=0.0005, max_value=0.0035))
    cy = draw(st.floats(min_value=0.0005, max_value=0.0035))
    near = st.floats(min_value=-0.0001, max_value=0.0001)
    weight = st.sampled_from(WEIGHTS)
    tags = st.frozensets(st.sampled_from(TAGS[1:])).map(
        lambda extra: extra | {"shop"})
    cluster = draw(st.lists(st.tuples(near, near, tags, weight),
                            min_size=17, max_size=24))
    spread = st.floats(min_value=-0.001, max_value=0.005)
    loose = draw(st.lists(
        st.tuples(spread, spread, st.frozensets(st.sampled_from(TAGS)),
                  weight),
        max_size=6))
    items = [(cx + dx, cy + dy, kws, wt) for dx, dy, kws, wt in cluster]
    # Exactly 0.001 above V0's top end and 0.0005 right of V1: on a cell
    # border for cell sizes 0.001 and 0.0005 respectively.
    items.append((0.0, 0.005, frozenset({"shop"}), draw(weight)))
    items.append((0.0045, 0.002, frozenset({"shop", "food"}), draw(weight)))
    items += loose
    pois = POISet(POI(i, x, y, kws, weight=wt)
                  for i, (x, y, kws, wt) in enumerate(items))
    return _frame_with_dot(cx, cy), pois


queries = st.frozensets(st.sampled_from(TAGS[1:])).map(
    lambda extra: extra | {"shop"})


@given(city=pass_cities(), query=queries,
       eps=st.sampled_from([0.0005, 0.001]),
       cell_size=st.sampled_from([None, 0.0005]))
@settings(max_examples=40)
def test_pass_matches_per_slot_and_per_cell_references(city, query, eps,
                                                       cell_size):
    network, pois = city
    engine = SOIEngine(network, pois, cell_size=cell_size)
    grid = engine.poi_index.grid
    assert list(CellBounds(engine.poi_index, query).entries) == \
        oracle.sl1_entries(grid, pois, query)
    layout = engine.store_layout(eps)
    offsets = layout.slot_offsets.tolist()
    slot_cells = _slot_cells(layout)
    relevant_in_cell = Counter(
        cell for pos, cell in enumerate(oracle.poi_cells(grid, pois))
        if pois[pos].matches(query))
    sizes = {relevant_in_cell[cell] for cell in layout.cells}
    assert max(sizes) > 4 and sizes & {1, 2, 3, 4}
    for weighted in (False, True):
        slots = materialise_slot_masses(layout, engine.poi_index, query,
                                        weighted)
        for dense, segment in enumerate(layout.segments):
            for slot in range(offsets[dense], offsets[dense + 1]):
                cell = slot_cells[slot]
                assert slots.mass[slot] == oracle.slot_mass(
                    segment, cell, grid, pois, query, eps, weighted), \
                    (segment.id, cell, weighted)
        assert slots.num_relevant == sum(
            relevant_in_cell[cell] > 0 for cell in slot_cells)
        assert slots.seg_relevant == [
            sum(relevant_in_cell[cell] > 0 for cell in
                slot_cells[offsets[dense]:offsets[dense + 1]])
            for dense in range(layout.num_segments)]


# Offsets from a point whose distance rounds to either side of 0.0005
# depending on the hypot: ``math.hypot`` within and ``np.hypot`` beyond,
# then the other way round.
MATH_WITHIN = (0.0004129557275535392, 0.0002818999238749936)
NUMPY_WITHIN = (0.00036796955983302743, 0.00033852385888780145)


@pytest.mark.parametrize("offset, companions, expected", [
    (MATH_WITHIN, 3, 3.0), (MATH_WITHIN, 4, 4.0),
    (NUMPY_WITHIN, 3, 4.0), (NUMPY_WITHIN, 4, 5.0)])
def test_cells_round_distances_with_their_kernel(offset, companions,
                                                 expected):
    """Every cell rounds as ``np.hypot``, whatever its number of
    relevant POIs: a POI whose two roundings straddle ``eps`` counts
    only when ``np.hypot`` puts it within, in a cell of four relevant
    POIs as in a cell of five."""
    network = _frame_with_dot(0.0, 0.0)
    pois = POISet(
        [POI(0, offset[0], offset[1], frozenset({"shop"}))]
        + [POI(i, 0.0, 0.0, frozenset({"shop"}))
           for i in range(1, companions + 1)])
    engine = SOIEngine(network, pois)
    layout = engine.store_layout(0.0005)
    cell = engine.poi_index.grid.cell_of(0.0, 0.0)
    assert engine.poi_index.grid.cell_of(*offset) == cell
    slots = materialise_slot_masses(layout, engine.poi_index,
                                    frozenset({"shop"}))
    dot = layout.dense_index[4]
    slot = _slot_cells(layout).index(cell, int(layout.slot_offsets[dot]))
    assert slots.mass[slot] == expected == oracle.slot_mass(
        network.segment(4), cell, engine.poi_index.grid, pois, ["shop"],
        0.0005)


# -- POIs on eps's rounding boundary ----------------------------------------

BOUNDARY_EPS = 0.0005


def _boundary_points(ax: float, ay: float, bx: float, by: float,
                     eps: float) -> tuple[list[tuple[float, float]],
                                          list[tuple[float, float]]]:
    """Two points ``math.hypot`` rounds within ``eps`` of segment ``a-b``
    and ``np.hypot`` beyond, and two the other way round.

    Searched at ``eps`` +- 2 ulps from ``b``, in directions where the
    closest point of the segment is ``b`` (its end cap) and the point
    stays in ``b``'s cell for the cities below.
    """
    found: dict[bool, list[tuple[float, float]]] = {True: [], False: []}
    ulp = math.ulp(eps)
    for step in range(20000):
        angle = math.radians(20.0 + 40.0 * step / 20000)
        for ulps in (-2, -1, 1, 2):
            reach = eps + ulps * ulp
            x = bx + reach * math.cos(angle)
            y = by + reach * math.sin(angle)
            exact = point_segment_distance(x, y, ax, ay, bx, by) <= eps
            batched = points_segment_distance(
                np.array([x]), np.array([y]), ax, ay, bx, by)[0] <= eps
            if exact != batched and len(found[exact]) < 2:
                found[exact].append((x, y))
        if len(found[True]) == len(found[False]) == 2:
            return found[True], found[False]
    pytest.skip("np.hypot and math.hypot agree near eps on this platform")


def _boundary_city() -> tuple[RoadNetwork, POISet]:
    """The four frame streets, a street ``Small`` ending at the centre of
    one cell and a street ``Big`` ending at the centre of another, with
    POIs on ``eps``'s rounding boundary at their end caps: two
    ``math.hypot``-only POIs and one ``np.hypot``-only POI at ``Small``'s,
    one of each at ``Big``'s.  Each cell holds six POIs: for
    Psi = {shop} ``Small``'s holds 3 relevant POIs and ``Big``'s 5; with
    ``bar`` both hold 6."""
    corners = [(0.0, 0.0), (0.004, 0.0), (0.0, 0.004), (0.004, 0.004)]
    ends = [(0.0015, 0.0015), (0.0025, 0.0015),
            (0.0015, 0.0025), (0.0025, 0.0025)]
    vertices = [Vertex(vid, x, y) for vid, (x, y) in enumerate(corners + ends)]
    pairs = [(0, 1), (2, 3), (0, 2), (1, 3), (4, 5), (6, 7)]
    segments = [Segment(sid, sid, u, v, vertices[u].x, vertices[u].y,
                        vertices[v].x, vertices[v].y)
                for sid, (u, v) in enumerate(pairs)]
    names = ["H0", "H1", "V0", "V1", "Small", "Big"]
    streets = [Street(sid, name, (sid,)) for sid, name in enumerate(names)]
    items = []
    for (ax, ay), (bx, by), math_only, numpy_only, shops, bars in (
            (ends[0], ends[1], 2, 1, 0, 3), (ends[2], ends[3], 1, 1, 3, 1)):
        math_within, numpy_within = _boundary_points(ax, ay, bx, by,
                                                     BOUNDARY_EPS)
        items += [(x, y, "shop") for x, y in
                  math_within[:math_only] + numpy_within[:numpy_only]]
        items += [(bx + 0.0002, by - 0.0001 * (i + 1), "shop")
                  for i in range(shops)]
        items += [(bx + 0.0001 * (i + 1), by - 0.0003, "bar")
                  for i in range(bars)]
    pois = POISet(POI(i, x, y, frozenset({tag}), weight=WEIGHTS[i % 4])
                  for i, (x, y, tag) in enumerate(items))
    return RoadNetwork(vertices, segments, streets), pois


def _slot_oracle_ranking(network, layout, grid, pois, query, eps,
                         weighted) -> list[tuple[float, int]]:
    """Definitions 2-3 over ``oracle.slot_mass``: each segment's slot
    masses summed in slot order, over its buffer area, the street's
    maximum, ranked as ``oracle.soi_topk`` ranks."""
    best: dict[int, float] = {}
    offsets = layout.slot_offsets.tolist()
    slot_cells = _slot_cells(layout)
    for dense, segment in enumerate(layout.segments):
        mass = 0.0
        for slot in range(offsets[dense], offsets[dense + 1]):
            mass += oracle.slot_mass(segment, slot_cells[slot], grid,
                                     pois, query, eps, weighted)
        interest = mass / buffer_area(segment.length, eps)
        best[segment.street_id] = max(best.get(segment.street_id, 0.0),
                                      interest)
    return sorted(((interest, sid) for sid, interest in best.items()
                   if interest > 0), key=lambda item: (-item[0], item[1]))


@pytest.mark.parametrize("query", [("shop",), ("shop", "bar")])
def test_rows_on_the_rounding_boundary_follow_their_cell(query):
    """POIs whose ``np.hypot`` and ``math.hypot`` distances straddle
    ``eps``, in cells of at most four and of at least five relevant POIs
    (``shop``) or of six (``shop``, ``bar``): every slot mass, weighted
    and unweighted, is ``oracle.slot_mass``, and the served ranking is
    Definitions 2-3 over it and ``oracle.soi_topk``, with the runtime
    contracts off and on.  Every path rounds each distance as
    ``np.hypot``, so a boundary POI counts the same way whichever cell
    it shares."""
    network, pois = _boundary_city()
    engine = SOIEngine(network, pois)
    grid = engine.poi_index.grid
    layout = engine.store_layout(BOUNDARY_EPS)
    relevant = {}
    cells = oracle.poi_cells(grid, pois)
    for street, sid in (("Small", 4), ("Big", 5)):
        end = network.segment(sid)
        cell = grid.cell_of(end.bx, end.by)
        members = [pos for pos, poi_cell in enumerate(cells)
                   if poi_cell == cell]
        assert len(members) == 6, street
        relevant[street] = sum(pois[pos].matches(frozenset(query))
                               for pos in members)
    assert relevant == ({"Small": 3, "Big": 5} if query == ("shop",)
                        else {"Small": 6, "Big": 6})
    offsets = layout.slot_offsets.tolist()
    slot_cells = _slot_cells(layout)
    for weighted in (False, True):
        slots = materialise_slot_masses(layout, engine.poi_index,
                                        frozenset(query), weighted)
        for dense, segment in enumerate(layout.segments):
            for slot in range(offsets[dense], offsets[dense + 1]):
                assert slots.mass[slot] == oracle.slot_mass(
                    segment, slot_cells[slot], grid, pois, query,
                    BOUNDARY_EPS, weighted), (segment.id, slot, weighted)
        request = SOIRequest(keywords=query, k=6, eps=BOUNDARY_EPS,
                             weighted=weighted)
        served = oracle.ranking(serve_request(engine, None, request))
        assert served == _slot_oracle_ranking(
            network, layout, grid, pois, query, BOUNDARY_EPS, weighted)
        assert served == oracle.soi_topk(network, pois, query, 6,
                                         BOUNDARY_EPS, weighted)
