"""Shared fixtures and Hypothesis strategies for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from repro.data.photo import Photo, PhotoSet
from repro.data.poi import POI, POISet
from repro.datagen.city import City, CitySpec, generate_city
from repro.network.builder import RoadNetworkBuilder
from repro.network.model import RoadNetwork

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=40,
)
settings.load_profile("repro")


# -- hand-built micro network -------------------------------------------------

@pytest.fixture()
def cross_network() -> RoadNetwork:
    """Two streets crossing at the origin, one with a breakpoint.

    Layout (coordinates in milli-units of the usual degree scale)::

            (0,1)
              |
    (-1,0)--(0,0)--(1,0)--(2,0.1)   "Main Street"  (3 segments)
              |
            (0,-1)                   "Cross Street" (2 segments)
    """
    builder = RoadNetworkBuilder()
    west = builder.add_vertex(-1.0, 0.0)
    center = builder.add_vertex(0.0, 0.0)
    east = builder.add_vertex(1.0, 0.0)
    far_east = builder.add_vertex(2.0, 0.1)
    north = builder.add_vertex(0.0, 1.0)
    south = builder.add_vertex(0.0, -1.0)
    builder.add_street("Main Street", [west, center, east, far_east])
    builder.add_street("Cross Street", [north, center, south])
    return builder.build()


@pytest.fixture()
def cross_pois() -> POISet:
    """POIs around the cross network: clustered near the centre."""
    return POISet([
        POI(0, 0.1, 0.05, frozenset({"shop", "fashion"})),
        POI(1, 0.2, -0.05, frozenset({"shop"})),
        POI(2, 0.5, 0.02, frozenset({"food", "cafe"})),
        POI(3, -0.5, 0.01, frozenset({"shop", "market"})),
        POI(4, 0.02, 0.5, frozenset({"food"})),
        POI(5, 0.01, -0.6, frozenset({"shop"})),
        POI(6, 5.0, 5.0, frozenset({"shop"})),       # far away
        POI(7, 0.3, 0.0, frozenset({"museum"})),
    ])


# -- small deterministic synthetic city -----------------------------------------

TEST_SPEC = CitySpec(
    name="testville",
    seed=99,
    n_horizontal=8,
    n_vertical=8,
    n_diagonal=2,
    width=0.05,
    height=0.05,
    breakpoint_prob=0.2,
    n_background_pois=150,
    misc_street_pois=400,
    street_pois_per_category=60,
    destinations_per_category=4,
    n_background_photos=60,
    street_photos=250,
    n_landmarks=6,
    photos_per_landmark=15,
    n_event_bursts=2,
    event_burst_size=15,
)


@pytest.fixture(scope="session")
def small_city() -> City:
    """A small but fully featured synthetic city (session-cached)."""
    return generate_city(TEST_SPEC)


@pytest.fixture(scope="session")
def small_engine(small_city):
    from repro.core.soi import SOIEngine

    return SOIEngine(small_city.network, small_city.pois)


# -- Hypothesis strategies -----------------------------------------------------

KEYWORD_POOL = ("shop", "food", "bar", "art", "park", "bank", "gym", "club")

coordinates = st.floats(min_value=0.0, max_value=0.02,
                        allow_nan=False, allow_infinity=False)
keyword_sets = st.frozensets(st.sampled_from(KEYWORD_POOL),
                             min_size=0, max_size=4)


@st.composite
def random_networks(draw) -> RoadNetwork:
    """Small random grid-ish networks built through the public builder."""
    n_rows = draw(st.integers(min_value=2, max_value=4))
    n_cols = draw(st.integers(min_value=2, max_value=4))
    spacing = 0.004
    builder = RoadNetworkBuilder()
    lattice = []
    for i in range(n_rows):
        row = []
        for j in range(n_cols):
            jx = draw(st.floats(min_value=-0.001, max_value=0.001))
            jy = draw(st.floats(min_value=-0.001, max_value=0.001))
            row.append(builder.add_vertex(j * spacing + jx,
                                          i * spacing + jy))
        lattice.append(row)
    for i in range(n_rows):
        builder.add_street(f"H{i}", lattice[i])
    for j in range(n_cols):
        builder.add_street(f"V{j}", [lattice[i][j] for i in range(n_rows)])
    return builder.build()


@st.composite
def random_pois(draw, min_size: int = 0, max_size: int = 25,
                weights: tuple[float, ...] = ()) -> POISet:
    """POI sets; each weight is drawn from ``weights`` (default 1.0)."""
    weight = st.sampled_from(weights) if weights else st.just(1.0)
    items = draw(st.lists(
        st.tuples(coordinates, coordinates, keyword_sets, weight),
        min_size=min_size, max_size=max_size))
    return POISet(POI(i, x, y, kws, weight=wt)
                  for i, (x, y, kws, wt) in enumerate(items))


@st.composite
def random_photos(draw, min_size: int = 1, max_size: int = 25) -> PhotoSet:
    items = draw(st.lists(
        st.tuples(coordinates, coordinates, keyword_sets),
        min_size=min_size, max_size=max_size))
    return PhotoSet(Photo(i, x, y, kws) for i, (x, y, kws) in enumerate(items))
