"""Complete k-SOI rankings: when one run answers every larger ``k``.

Algorithm 1 marks a run *complete* when its filter stopped with UB <= 0
and refinement pruned nothing (``SOIStats.complete``); it then returns
every street of positive interest, and the result cache serves any later
``k`` of the signature by slicing.  These tests state the claim behind
that reuse on cities whose POI weights are not dyadic, so that sums taken
in another order round differently:

* a complete run at ``k`` equals a fresh run at every ``k' > k``, ranking
  and work counters alike, and holds every street of positive interest;
* a run is complete exactly when the UB it stopped at is 0 and nothing
  was pruned, so a run stopped by LB_k >= UB > 0 never is;
* weighted answers do not depend on ``k`` in their last bits:
  ``top_k(k) == top_k(K)[:k]`` and SOI equals BL bit for bit;
* BL's NumPy ranking, which serves every k-SOI request, equals
  Algorithm 1's complete ranking bit for bit, best segments included,
  and the served pages agree with ``top_k`` at every ``k``.

Every test runs plain and with the runtime contracts on, through the
autouse fixture of ``tests/test_state_store.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import soi as soi_module
from repro.core.interest import validate_query
from repro.core.soi import AccessStrategy, SOIEngine
from repro.core.soi_baseline import BaselineSOI
from repro.data.poi import POI, POISet
from repro.network.builder import RoadNetworkBuilder
from repro.serve.server import SOIRequest, serve_request

from tests.conftest import KEYWORD_POOL, random_networks, random_pois
from tests.oracle import assert_topk_equivalent, ranking, soi_topk
from tests.test_oracle_differential import (
    _two_street_city,
    clustered_pois,
)
from tests.test_state_store import _maybe_contracts  # noqa: F401 (autouse)

NON_DYADIC = (0.1, 0.3, 0.7, 1.3)
EPS = 0.001

cities = dict(
    network=random_networks(),
    pois=st.one_of(random_pois(min_size=1, weights=NON_DYADIC),
                   clustered_pois(weights=NON_DYADIC)),
    keywords=st.lists(st.sampled_from(KEYWORD_POOL), min_size=1,
                      max_size=3, unique=True),
    strategy=st.sampled_from(list(AccessStrategy)),
    weighted=st.booleans())


def stopped_run(engine, keywords, k, strategy, weighted, eps=EPS):
    """A cold run, on a fresh session: its answer, its stats and the UB
    it stopped at (refinement leaves the seen set, hence UB, as the filter
    left it)."""
    query = validate_query(keywords, k, eps)
    engine.invalidate_sessions()
    run = soi_module._SOIRun(engine, query, k, eps, strategy, True,
                             weighted, engine.sessions.get(query))
    ranking, stats = run.execute()
    return ranking, stats, run._compute_ub()


@given(k=st.integers(min_value=1, max_value=6), **cities)
@settings(max_examples=40)
def test_complete_run_answers_every_larger_k(network, pois, keywords,
                                             strategy, weighted, k):
    engine = SOIEngine(network, pois, cell_size=0.0015)
    ranking, stats, ub = stopped_run(engine, keywords, k, strategy,
                                     weighted)
    assert stats.complete == (ub <= 0.0 and stats.refinement_pruned == 0)
    if not stats.complete:
        assert len(ranking) <= k
        return
    assert len(ranking) == len(soi_topk(network, pois, keywords,
                                        len(network.streets), EPS, weighted))
    for k_prime in range(k + 1, len(ranking) + 3):
        engine.invalidate_sessions()
        fresh, fresh_stats = engine.top_k_with_stats(
            keywords, k_prime, eps=EPS, strategy=strategy,
            weighted=weighted)
        assert fresh_stats.complete
        assert fresh == ranking
        assert fresh_stats.counters() == stats.counters()
        assert engine.top_k(keywords, k_prime, eps=EPS, strategy=strategy,
                            weighted=weighted) == ranking[:k_prime]


def test_run_stopped_above_zero_is_never_complete():
    """Street A has 20 POIs in one cell, far-away street B one POI, and
    ten decoy cells of two POIs lie near no street.  A cells-first k = 1
    run stops on LB_k >= UB while B is unseen and UB is still positive."""
    network, pois = _two_street_city(0.0003, [(0.05015, 0.0501, 1.0)])
    engine = SOIEngine(network, pois)
    for weighted in (False, True):
        for strategy in AccessStrategy:
            ranking, stats, ub = stopped_run(engine, ["shop"], 1, strategy,
                                             weighted, eps=0.0005)
            assert stats.complete == (ub <= 0.0
                                      and stats.refinement_pruned == 0)
            assert len(ranking) == (2 if stats.complete else 1)
    _, stats, ub = stopped_run(engine, ["shop"], 1,
                               AccessStrategy.CELLS_FIRST, False, eps=0.0005)
    assert ub > 0.0 and not stats.complete


@given(k=st.integers(min_value=1, max_value=8), **cities)
@settings(max_examples=40)
def test_weighted_answers_do_not_depend_on_k(network, pois, keywords,
                                             strategy, weighted, k):
    engine = SOIEngine(network, pois, cell_size=0.0015)
    deep = engine.top_k(keywords, k + 4, eps=EPS, strategy=strategy,
                        weighted=weighted)
    assert deep == BaselineSOI(engine).top_k(keywords, k + 4, eps=EPS,
                                             weighted=weighted)
    for k_prime in range(1, k + 4):
        assert engine.top_k(keywords, k_prime, eps=EPS, strategy=strategy,
                            weighted=weighted) == deep[:k_prime]


def test_weighted_answers_do_not_depend_on_k_on_a_preset():
    """The Figure 4 city with seeded non-dyadic weights: before exact
    masses were settled in slot order, shallow runs summed some segments'
    cells in SL1 pop order and differed from deeper runs and BL in the
    last bits."""
    from repro.datagen import build_preset
    from repro.eval.experiments import PAPER_QUERY_KEYWORDS

    city = build_preset("vienna", 0.25)
    draws = np.random.default_rng(7).choice(NON_DYADIC, size=len(city.pois))
    pois = POISet(POI(poi.id, poi.x, poi.y, poi.keywords, weight=float(w))
                  for poi, w in zip(city.pois, draws.tolist()))
    engine = SOIEngine(city.network, pois)
    baseline = BaselineSOI(engine)
    for count in (1, 2, 3):
        keywords = PAPER_QUERY_KEYWORDS[:count]
        for eps in (0.0003, 0.0005):
            deep = engine.top_k(keywords, 60, eps=eps, weighted=True)
            assert deep == baseline.top_k(keywords, 60, eps=eps,
                                          weighted=True)
            for k in (1, 5, 20):
                assert engine.top_k(keywords, k, eps=eps,
                                    weighted=True) == deep[:k]


@given(**cities)
@settings(max_examples=40)
def test_numpy_ranking_is_algorithm1_complete_ranking(network, pois,
                                                      keywords, strategy,
                                                      weighted):
    engine = SOIEngine(network, pois, cell_size=0.0015)
    streets = len(network.streets)
    complete = engine.top_k(keywords, streets, eps=EPS, strategy=strategy,
                            weighted=weighted)
    assert list(BaselineSOI(engine).ranking(keywords, EPS,
                                            weighted=weighted)) == complete
    for k in range(1, streets + 2):
        served = serve_request(engine, None, SOIRequest(
            tuple(keywords), k, EPS, weighted=weighted))
        assert_topk_equivalent(
            ranking(served),
            ranking(engine.top_k(keywords, k, eps=EPS, strategy=strategy,
                                 weighted=weighted)))


def _tied_segments_city():
    """One street of two equal-length segments with one POI within eps
    each.  The cell SL1 pops first holds two POIs out of reach and lies
    in ``C_eps`` of segment 1 only, so the strategies that pop cells
    finalise segment 1 before segment 0."""
    builder = RoadNetworkBuilder()
    builder.add_street("S", [builder.add_vertex(x, 0.0)
                             for x in (0.0, 0.001, 0.002)])
    spots = [(0.0005, 0.0001), (0.0015, 0.0001), (0.0029, 0.0001),
             (0.0025, -0.0008)]
    pois = POISet(POI(i, x, y, frozenset({"shop"}))
                  for i, (x, y) in enumerate(spots))
    return builder.build(), pois


def test_equal_segment_maxima_report_the_lowest_dense_position():
    """Every access strategy, BL and serving report segment 0."""
    network, pois = _tied_segments_city()
    engine = SOIEngine(network, pois, cell_size=0.001)
    first = network.streets[0].segment_ids[0]
    expected = BaselineSOI(engine).top_k(["shop"], 1, eps=0.0005)
    assert [r.best_segment_id for r in expected] == [first]
    for strategy in AccessStrategy:
        engine.invalidate_sessions()
        for _cold_then_warm in range(2):
            assert engine.top_k(["shop"], 1, eps=0.0005,
                                strategy=strategy) == expected
    assert serve_request(engine, None, SOIRequest(
        ("shop",), 1, 0.0005)) == expected
