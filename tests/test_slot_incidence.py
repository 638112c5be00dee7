"""A store layout's within-``eps`` POI incidence follows the index and is
built once.

The slot-mass pass reads Definition 1's distance test from the layout's
:class:`~repro.core.state_store.SlotIncidence` instead of computing any
distance per query.  These tests pin where that incidence comes from:

* rankings equal ``tests/oracle.soi_topk`` after
  :meth:`~repro.core.soi.SOIEngine.rebuild_indexes` renumbers every slot,
  weighted and unweighted;
* a worker serves an ``eps`` the snapshot did not warm, and a warmed one,
  with the oracle's answers;
* the distance kernel runs once per ``(engine, eps)`` layout: 20 cold
  keyword signatures at one ``eps`` call it once, an attached view
  builds it for every warmed ``eps``, and export leaves it unbuilt.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core import state_store
from repro.core.soi import DEFAULT_EPS, SOIEngine
from repro.data.poi import POI, POISet
from repro.network.builder import RoadNetworkBuilder
from repro.serve import EngineServer, IndexSnapshot, attach_engine
from repro.serve.server import SOIRequest, serve_request

from tests.conftest import KEYWORD_POOL
from tests.test_oracle_differential import WEIGHTS, assert_oracle_answer

COLD_EPS = 0.0003
SIGNATURES = [("shop",), ("food", "bar"), ("art",), ("park", "gym"),
              ("club", "shop", "bank")]


def _grid_city() -> tuple:
    """A 4 x 4 street grid 0.004 apart and 150 POIs spread over it by an
    additive recurrence, with a cluster of 30 near one crossing so that
    some cells hold more than four relevant POIs."""
    builder = RoadNetworkBuilder()
    lattice = [[builder.add_vertex(0.004 * j, 0.004 * i) for j in range(4)]
               for i in range(4)]
    for i in range(4):
        builder.add_street(f"H{i}", lattice[i])
        builder.add_street(f"V{i}", [row[i] for row in lattice])
    items = [((0.7548776662 * n) % 1.0 * 0.014,
              (0.5698402910 * n) % 1.0 * 0.014) for n in range(1, 121)]
    items += [(0.0041 + 0.00002 * (n % 6), 0.0039 + 0.00003 * (n // 6))
              for n in range(30)]
    pois = POISet(
        POI(pos, x, y,
            frozenset({KEYWORD_POOL[pos % 8], KEYWORD_POOL[pos % 3]}),
            weight=WEIGHTS[pos % 4])
        for pos, (x, y) in enumerate(items))
    return builder.build(), pois


@pytest.fixture(scope="module")
def city():
    return _grid_city()


def _assert_serves_oracle(serve, network, pois, eps_values) -> None:
    for keywords, eps, weighted in itertools.product(
            SIGNATURES, eps_values, (False, True)):
        request = SOIRequest(keywords=keywords, k=8, eps=eps,
                             weighted=weighted)
        assert_oracle_answer(serve(request), network, pois, keywords, 8,
                             eps, weighted)


@pytest.mark.parametrize("cell_size", [0.0007, 0.003])
def test_rankings_follow_rebuild_indexes(city, cell_size):
    network, pois = city
    engine = SOIEngine(network, pois)

    def serve(request):
        return serve_request(engine, None, request)

    _assert_serves_oracle(serve, network, pois, (DEFAULT_EPS,))
    def slot_cells():
        layout = engine.store_layout(DEFAULT_EPS)
        return [layout.cells[cell] for cell in layout.slot_cell.tolist()]

    slots_before = slot_cells()
    engine.rebuild_indexes(cell_size=cell_size)
    assert slot_cells() != slots_before
    _assert_serves_oracle(serve, network, pois, (DEFAULT_EPS, COLD_EPS))


def test_worker_serves_warm_and_cold_eps(city):
    network, pois = city
    engine = SOIEngine(network, pois)
    with EngineServer.for_engine(engine, workers=1,
                                 warm_eps=(DEFAULT_EPS,)) as server:
        _assert_serves_oracle(lambda request: server.run([request])[0],
                              network, pois, (COLD_EPS, DEFAULT_EPS))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts calls of the distance kernel behind every incidence."""
    calls = []
    kernel = state_store.points_segments_within

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(state_store, "points_segments_within", counted)
    return calls


def test_cold_signatures_share_one_kernel_call(city, kernel_calls):
    network, pois = city
    engine = SOIEngine(network, pois)
    signatures = [combo for size in (1, 2)
                  for combo in itertools.combinations(KEYWORD_POOL, size)]
    passes = 0
    for keywords in signatures[:20]:
        _results, stats = engine.top_k_with_stats(keywords, 5,
                                                  eps=DEFAULT_EPS)
        assert not stats.session_reused
        passes += stats.kernel_calls
    assert passes == 20
    assert kernel_calls == [DEFAULT_EPS]


def test_attach_builds_the_incidence_of_every_warm_eps(city, kernel_calls):
    network, pois = city
    engine = SOIEngine(network, pois)
    snapshot = IndexSnapshot.export(engine, warm_eps=(DEFAULT_EPS,))
    try:
        assert kernel_calls == []
        view = attach_engine(snapshot)
        assert kernel_calls == [DEFAULT_EPS]
        view.top_k(["shop"], 5, eps=DEFAULT_EPS)
        assert kernel_calls == [DEFAULT_EPS]
        view.top_k(["shop"], 5, eps=COLD_EPS)
        view.top_k(["food"], 5, eps=COLD_EPS)
        assert kernel_calls == [DEFAULT_EPS, COLD_EPS]
    finally:
        snapshot.close()
