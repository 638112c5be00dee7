"""Column-backed POI/photo tables over a snapshot: equal to their source,
decoded only where a query reads items.

Attaching a snapshot builds no :class:`POI` or :class:`Photo`: the tables
wrap the shared-memory columns and decode an item on the first
positional access to it.  These tests pin both halves on the Figure 4 /
Figure 6 city presets (scale 0.1), plain and with the runtime contracts
on: every table operation answers exactly as on the object-built source,
and the serving path decodes nothing Algorithm 1 does not read.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import repro
from repro.analysis import contracts
from repro.core.describe.profile import photos_near_street
from repro.core.soi import DEFAULT_EPS, SOIEngine
from repro.data.photo import Photo
from repro.data.poi import POI
from repro.datagen import build_preset
from repro.perf.parallel import run_parallel
from repro.serve import IndexSnapshot, attach_engine, attach_photo_set
from repro.serve.server import DescribeRequest, SOIRequest, serve_request
from repro.serve.views import attach_pois

QUERIES = (("food",), ("shop", "food"), ("culture", "services", "zzz"), ())


@pytest.fixture(scope="module", params=["vienna", "berlin"])
def exported(request):
    city = build_preset(request.param, 0.1)
    engine = SOIEngine(city.network, city.pois)
    snapshot = IndexSnapshot.export(engine, city.photos,
                                    warm_eps=(DEFAULT_EPS,))
    yield city, engine, snapshot
    snapshot.close()


@pytest.fixture(params=[False, True], ids=["plain", "contracts"])
def check(request):
    previous = contracts.ENABLED
    contracts.enable_contracts(request.param)
    yield request.param
    contracts.enable_contracts(previous)


def _sample_positions(n: int) -> list[int]:
    return sorted({0, 1, n // 3, n // 2, n - 2, n - 1})


def _assert_table_equals_source(view, source) -> None:
    n = len(source)
    assert len(view) == n
    positions = _sample_positions(n)
    assert view[-1] == source[-1]  # first touch through a negative index
    for pos in positions:
        assert view[pos] == source[pos]
    for pos in positions:
        item_id = source[pos].id
        assert view.position_of(item_id) == source.position_of(item_id)
        assert view.by_id(item_id) == source.by_id(item_id)
    subset, expected = view.subset(positions[::-1]), source.subset(
        positions[::-1])
    assert list(subset) == list(expected)
    assert subset.xs.tolist() == expected.xs.tolist()
    assert subset.ys.tolist() == expected.ys.tolist()
    assert view.vocabulary() == source.vocabulary()
    for query in QUERIES:
        assert view.relevant_positions(query) == \
            source.relevant_positions(query)
    assert list(view) == list(source)


def test_attached_pois_equal_source(exported, check):
    city, _engine, snapshot = exported
    view = attach_pois(snapshot)
    _assert_table_equals_source(view, city.pois)
    assert view.weights.tolist() == city.pois.weights.tolist()


def test_attached_photos_equal_source(exported, check):
    city, _engine, snapshot = exported
    _assert_table_equals_source(attach_photo_set(snapshot), city.photos)


def test_attached_engine_answers_like_source(exported, check):
    city, engine, snapshot = exported
    view, photos = attach_engine(snapshot), attach_photo_set(snapshot)
    soi = SOIRequest(keywords=("food", "shop"), k=10)
    top = serve_request(engine, city.photos, soi)
    assert serve_request(view, photos, soi) == top
    describe = DescribeRequest(street_id=top[0].street_id, k=5)
    assert serve_request(view, photos, describe) == \
        serve_request(engine, city.photos, describe)


@contextlib.contextmanager
def _constructor_counts():
    """Counts POI / Photo constructions (both run ``__post_init__``)."""
    calls = {POI: 0, Photo: 0}

    def counting(cls):
        original = cls.__post_init__

        def post_init(item) -> None:
            calls[cls] += 1
            original(item)
        return post_init

    with mock.patch.object(POI, "__post_init__", counting(POI)), \
            mock.patch.object(Photo, "__post_init__", counting(Photo)):
        yield calls


def test_serving_decodes_only_what_a_query_reads(exported):
    """Attach + one k-SOI builds no POI; one describe builds exactly its
    street's photos.  Contracts stay off: their sampled Definition 1
    recount scans every POI by design."""
    city, engine, snapshot = exported
    previous = contracts.ENABLED
    contracts.enable_contracts(False)
    try:
        with _constructor_counts() as calls:
            view = attach_engine(snapshot)
            photos = attach_photo_set(snapshot)
            top = serve_request(view, photos,
                                SOIRequest(keywords=("food", "shop"), k=10))
            assert top and calls == {POI: 0, Photo: 0}
            street_id = top[0].street_id
            serve_request(view, photos,
                          DescribeRequest(street_id=street_id, k=5))
        near = photos_near_street(engine.network, street_id, city.photos,
                                  DEFAULT_EPS)
        assert near
        assert calls == {POI: 0, Photo: len(near)}
    finally:
        contracts.enable_contracts(previous)


def test_concurrent_first_touch_decodes_agree(exported):
    """More threads than cores race the first-touch caches (item decode,
    keyword entries, cell groups) of one freshly attached view; every
    answer must equal the source engine's."""
    city, engine, snapshot = exported
    view, photos = attach_engine(snapshot), attach_photo_set(snapshot)
    signatures = [("food",), ("shop",), ("food", "shop"), ("culture",)]
    soi = [SOIRequest(keywords=keywords, k=10) for keywords in signatures]
    streets = [r.street_id for r in serve_request(engine, None, soi[2])[:4]]
    requests = soi + [DescribeRequest(street_id=sid, k=5) for sid in streets]
    expected = [serve_request(engine, city.photos, r) for r in requests]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = run_parallel(
            [lambda r=r: serve_request(view, photos, r)
             for r in requests * 2],
            jobs=2 * len(requests))
    finally:
        sys.setswitchinterval(previous)
    assert results == expected * 2


def test_server_import_leaves_networkx_unloaded():
    """Spawned workers import ``repro.serve.server``; networkx serves only
    route recommendation and must not come with it."""
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.serve.server; "
         "print('networkx' in sys.modules)"],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
