"""The describe set-up's column passes against their references.

``build_street_profile`` finds ``R_s`` through a padded MBR prefilter and
computes Definitions 4 and 6 in column passes; the describer computes the
Equation 11-14 bounds of every cell in one pass.  Each must equal its
reference bit for bit: ``R_s``, ``maxD(s)``, ``spatial_rel`` and
``textual_rel`` the definitional :class:`tests.oracle.StreetContext`, and
the four bound columns :meth:`CellBoundsContext.relevance_bounds` cell by
cell.  The generated streets put photos exactly ``eps`` from a segment
end on the edge of the street MBR (the prefilter's pad), exactly ``rho``
apart across cell borders (the ring-3 guard of Equation 12), on top of
each other and without tags; streets hold 0, 1 or more photos than one
block of each pass.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.describe.bounds import (
    CellBoundsContext,
    relevance_bound_columns,
)
from repro.core.describe.profile import (
    build_street_profile,
    photos_near_street,
)
from repro.core.describe.st_rel_div import STRelDivDescriber
from repro.data.photo import Photo, PhotoSet
from repro.index.photo_grid import PhotoGridIndex
from repro.network.builder import RoadNetworkBuilder

from tests.conftest import KEYWORD_POOL, keyword_sets, random_networks
from tests.oracle import StreetContext, greedy_mmr

STEPS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_columns_match_references(network, photos, street_id, eps,
                                    rho) -> None:
    profile = build_street_profile(network, street_id, photos, eps, rho=rho)
    oracle = StreetContext(network, photos, street_id, eps, rho)
    assert profile.photos.ids.tolist() == oracle.ids
    assert profile.max_d == oracle.max_d
    assert profile.phi.as_dict() == dict(oracle.phi)
    assert _bits(profile.spatial_rel) == _bits(oracle.spatial_rel)
    assert _bits(profile.textual_rel) == _bits(oracle.textual_rel)
    index = PhotoGridIndex(profile.photos, profile.extent, profile.rho)
    reference = CellBoundsContext(profile, index)
    expected = [reference.relevance_bounds(cell) for cell in index.cells()]
    columns = relevance_bound_columns(profile, index)
    for column, name in zip(columns, ("spatial_lo", "spatial_hi",
                                      "textual_lo", "textual_hi")):
        assert _bits(column) == _bits([getattr(bounds, name)
                                       for bounds in expected]), name
    for k in (1, 4):
        assert STRelDivDescriber(profile).select(k) == \
            greedy_mmr(oracle, k, 0.5, 0.5)


@st.composite
def street_photo_cases(draw):
    """A random network, one of its streets, and photos around it."""
    network = draw(random_networks())
    eps = draw(st.sampled_from([0.0005, 0.001, 0.002]))
    rho = draw(st.sampled_from([0.0001, 0.0004, 0.001]))
    street_id = draw(st.sampled_from(sorted(network.streets)))
    segments = network.segments_of_street(street_id)
    extent = network.street_bbox(street_id).expanded(eps)
    side = rho / 2.0
    points = []
    # Exactly eps beyond a segment end along an axis, and up to two ulps
    # further: on or just past the padded MBR's edge when the end is on
    # the MBR's, where the projected end can round outwards.
    for segment in draw(st.lists(st.sampled_from(segments), max_size=3)):
        for x, y in ((segment.ax, segment.ay), (segment.bx, segment.by)):
            dx, dy = draw(st.sampled_from(STEPS))
            x, y = x + dx * eps, y + dy * eps
            for _ulp in range(draw(st.integers(min_value=0, max_value=2))):
                x = float(np.nextafter(x, x + dx))
                y = float(np.nextafter(y, y + dy))
            points.append((x, y))
    # Pairs exactly rho apart, the first on a cell corner.
    cells = st.integers(min_value=0, max_value=int(extent.width / side))
    for _pair in range(draw(st.integers(min_value=0, max_value=3))):
        x = extent.min_x + draw(cells) * side
        y = extent.min_y + draw(cells) * side
        dx, dy = draw(st.sampled_from(STEPS))
        points += [(x, y), (x + dx * rho, y + dy * rho)]
    inside = st.tuples(
        st.floats(min_value=extent.min_x, max_value=extent.max_x),
        st.floats(min_value=extent.min_y, max_value=extent.max_y))
    points += draw(st.lists(inside, max_size=12))
    if points:
        points += [points[i] for i in draw(st.lists(
            st.integers(min_value=0, max_value=len(points) - 1),
            max_size=3))]
    photos = PhotoSet(Photo(i, x, y, draw(keyword_sets))
                      for i, (x, y) in enumerate(points))
    return network, photos, street_id, eps, rho


@given(case=street_photo_cases())
@settings(max_examples=60, deadline=None)
def test_profile_and_bound_columns_equal_references(case):
    assert_columns_match_references(*case)


def test_pad_covers_an_end_that_rounds_outwards():
    """The segment's projected end rounds one ulp past ``bx``, so a photo
    one ulp beyond the MBR extended by ``eps`` is within ``eps``."""
    ax, bx, y, eps = 0.0004369876668392325, 0.007362095847727834, 0.017, 0.002
    builder = RoadNetworkBuilder()
    street = builder.add_street("S", [builder.add_vertex(ax, y),
                                      builder.add_vertex(bx, y)])
    network = builder.build()
    beyond = float(np.nextafter(bx + eps, 1.0))
    photos = PhotoSet([Photo(0, beyond, y, frozenset({"edge"}))])
    assert photos_near_street(network, street, photos, eps) == [0]
    assert_columns_match_references(network, photos, street, eps, 0.0001)


@pytest.mark.parametrize("count", [0, 1])
def test_streets_with_zero_or_one_photo(cross_network, count):
    main = cross_network.street_by_name("Main Street")
    photos = PhotoSet([Photo(0, 0.1, 0.01, frozenset({"only"}))][:count]
                      + [Photo(1, 5.0, 5.0, frozenset({"far"}))])
    assert_columns_match_references(cross_network, photos, main.id, 0.1,
                                    0.05)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       network=random_networks())
@settings(max_examples=4, deadline=None)
def test_streets_larger_than_one_block(seed, network):
    """1,500 photos within ``eps`` of one street: several row blocks of
    the Definition 4 pass and more occupied cells than one block of the
    Equation 12 pass."""
    rng = np.random.default_rng(seed)
    street_id = min(network.streets)
    segments = network.segments_of_street(street_id)
    eps, n = 0.002, 1500
    points = []
    for index, t, offset in zip(rng.integers(0, len(segments), n),
                                rng.uniform(0.0, 1.0, n),
                                rng.uniform(-0.9 * eps, 0.9 * eps, n)):
        segment = segments[index]
        dx, dy = segment.bx - segment.ax, segment.by - segment.ay
        scale = offset / segment.length
        points.append((segment.ax + t * dx - scale * dy,
                       segment.ay + t * dy + scale * dx))
    tags = [frozenset(rng.choice(KEYWORD_POOL, size=int(size),
                                 replace=False).tolist())
            for size in rng.integers(0, 4, n)]
    photos = PhotoSet(Photo(i, float(x), float(y), tags[i])
                      for i, (x, y) in enumerate(points))
    profile = build_street_profile(network, street_id, photos, eps,
                                   rho=0.0001)
    index = PhotoGridIndex(profile.photos, profile.extent, profile.rho)
    assert len(profile) ** 2 > 32768
    assert index.num_occupied_cells > 32768 // 49
    assert_columns_match_references(network, photos, street_id, eps, 0.0001)
