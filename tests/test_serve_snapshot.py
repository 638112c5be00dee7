"""Snapshot lifecycle: bit-identical round-trips, generations, shm cleanup.

The acceptance bar for ``repro.serve`` is *exact* equality: every query
answered through a shared-memory-attached engine must return the same
bits as the original in-process engine, on the Figure 4 (k-SOI sweep)
and Figure 6 (describe sweep) configurations, with and without the
runtime contracts enabled.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis import contracts
from repro.core.soi import DEFAULT_EPS, SOIEngine
from repro.errors import SnapshotError
from repro.serve import IndexSnapshot, attach_engine, attach_photo_set
from repro.serve.server import DescribeRequest, SOIRequest, serve_request

FIG4_KS = (10, 25, 50, 100)
FIG6_KS = (10, 20, 30, 40, 50)
CATEGORIES = ("food", "shop", "services", "culture")
SIGNATURES = tuple(CATEGORIES[:n] for n in range(1, len(CATEGORIES) + 1))


@pytest.fixture(scope="module")
def snapshot(small_engine, small_city):
    snap = IndexSnapshot.export(small_engine, small_city.photos,
                                warm_eps=(DEFAULT_EPS,))
    yield snap
    snap.close()


@pytest.fixture(scope="module")
def attached(snapshot):
    """(engine, photos) views reconstructed from the shm block."""
    return attach_engine(snapshot), attach_photo_set(snapshot)


def fig4_requests():
    for keywords in SIGNATURES:
        for k in FIG4_KS:
            yield SOIRequest(keywords=tuple(keywords), k=k)


def fig6_requests(engine):
    streets = [r.street_id
               for r in engine.top_k(["food"], k=3, eps=DEFAULT_EPS)]
    assert streets, "testville must answer the food query"
    for street_id in streets:
        for k in FIG6_KS:
            yield DescribeRequest(street_id=street_id, k=k)


# -- bit-identity -------------------------------------------------------------

def test_fig4_round_trip_is_bit_identical(small_engine, small_city, attached):
    engine_view, _ = attached
    for request in fig4_requests():
        expected = serve_request(small_engine, small_city.photos, request)
        got = serve_request(engine_view, None, request)
        assert got == expected  # dataclass ==: exact floats, exact order


def test_fig4_strategies_and_weighted_round_trip(small_engine, attached):
    engine_view, _ = attached
    for weighted in (False, True):
        request = SOIRequest(keywords=("food", "shop"), k=25,
                             weighted=weighted)
        assert serve_request(engine_view, None, request) == \
            serve_request(small_engine, None, request)


def test_fig6_round_trip_is_bit_identical(small_engine, small_city, attached):
    engine_view, photos_view = attached
    for request in fig6_requests(small_engine):
        expected = serve_request(small_engine, small_city.photos, request)
        got = serve_request(engine_view, photos_view, request)
        assert got == expected


def test_round_trip_under_contracts(small_engine, small_city, attached):
    """A fig4/fig6 sample stays identical with REPRO_CHECK semantics on."""
    engine_view, photos_view = attached
    requests = [SOIRequest(keywords=("food", "shop"), k=10),
                next(iter(fig6_requests(small_engine)))]
    prior = contracts.ENABLED
    contracts.enable_contracts(True)
    try:
        for request in requests:
            assert serve_request(engine_view, photos_view, request) == \
                serve_request(small_engine, small_city.photos, request)
    finally:
        contracts.enable_contracts(prior)


# -- layout properties --------------------------------------------------------

def test_attached_columns_are_zero_copy_and_read_only(snapshot, attached):
    engine_view, _ = attached
    xs = engine_view.pois.xs
    assert isinstance(xs, np.ndarray) and not xs.flags.writeable
    # A view into the shm block, not a copy: same memory as the snapshot's.
    assert np.shares_memory(xs, snapshot.array("poi_xs"))
    with pytest.raises(ValueError):
        xs[0] = 0.0


def test_snapshot_records_generation(small_city, snapshot):
    assert snapshot.generation == 0
    engine = SOIEngine(small_city.network, small_city.pois)
    engine.rebuild_indexes()
    with IndexSnapshot.export(engine) as rebuilt:
        assert rebuilt.generation == 1
        assert attach_engine(rebuilt).index_generation == 1


def test_attach_rejects_unknown_name():
    with pytest.raises(SnapshotError):
        IndexSnapshot.attach("repro-snap-does-not-exist")


# -- cleanup ------------------------------------------------------------------

def test_close_unlinks_the_block(small_engine):
    snap = IndexSnapshot.export(small_engine)
    name = snap.name
    assert os.path.exists(f"/dev/shm/{name}")
    snap.close()
    assert not os.path.exists(f"/dev/shm/{name}")
    with pytest.raises(SnapshotError):
        IndexSnapshot.attach(name)


def test_reader_close_keeps_the_block(small_engine):
    snap = IndexSnapshot.export(small_engine)
    try:
        reader = IndexSnapshot.attach(snap.name)
        reader.close()  # non-owner: must not unlink
        assert os.path.exists(f"/dev/shm/{snap.name}")
    finally:
        snap.close()
    assert not os.path.exists(f"/dev/shm/{snap.name}")
