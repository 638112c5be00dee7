"""Every production path against the definitional oracle (``tests/oracle.py``).

Hypothesis generates small cities whose POIs carry non-unit weights:
scattered over the city, or packed around one point so that a cell holds
enough relevant POIs for the batched distance kernel and the Lemma 1
bounds stop the filter early.  SOI (every access strategy, with and
without refinement pruning), BL, both describers and the serve path
(direct and through a ``ResultCache``) must give the oracle's answer:

* unweighted k-SOI answers equal ``soi_topk`` exactly, floats included;
* weighted answers agree within 1e-9 relative error, with the same streets
  above the k-th-value tie (weights are summed in another order);
* every ``best_segment_id`` is a segment of its street whose brute-force
  interest is the reported one;
* describe payloads equal ``describe_ids`` exactly.

SOI and BL queries run on a cold session and again on the warm one.  The
module runs plain and with the runtime contracts on, through the autouse
fixture of ``tests/test_state_store.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.describe.greedy import GreedyDescriber
from repro.core.describe.profile import DEFAULT_RHO, build_street_profile
from repro.core.describe.st_rel_div import STRelDivDescriber
from repro.core.interest import segment_interest, segment_mass_bruteforce
from repro.core.soi import AccessStrategy, SOIEngine
from repro.core.soi_baseline import BaselineSOI
from repro.data.poi import POI, POISet
from repro.network.builder import RoadNetworkBuilder
from repro.obs.metrics import MetricsRegistry
from repro.perf.result_cache import ResultCache
from repro.serve.server import (
    DescribeRequest,
    SOIRequest,
    serve_request,
    serve_request_cached,
)

from tests.conftest import (
    KEYWORD_POOL,
    random_networks,
    random_photos,
    random_pois,
)
from tests.oracle import (
    assert_best_segments,
    assert_topk_equivalent,
    describe_ids,
    greedy_mmr,
    ranking,
    soi_topk,
)
from tests.test_state_store import _maybe_contracts  # noqa: F401 (autouse)

REL = 1e-9
WEIGHTS = (0.25, 0.7, 2.5, 4.0)

queries = st.lists(st.sampled_from(KEYWORD_POOL), min_size=1, max_size=3,
                   unique=True)
ks = st.integers(min_value=1, max_value=8)
eps_values = st.sampled_from([0.0004, 0.0005, 0.001, 0.002])
cell_sizes = st.sampled_from([None, 0.003])


@st.composite
def clustered_pois(draw) -> POISet:
    """20-40 POIs within 0.0015 of one point, each tagged with one or
    both of the first two pool keywords."""
    cx = draw(st.floats(min_value=0.002, max_value=0.01))
    cy = draw(st.floats(min_value=0.002, max_value=0.01))
    near = st.floats(min_value=-0.0015, max_value=0.0015)
    tags = st.frozensets(st.sampled_from(KEYWORD_POOL[:2]), min_size=1)
    items = draw(st.lists(
        st.tuples(near, near, tags, st.sampled_from(WEIGHTS)),
        min_size=20, max_size=40))
    return POISet(POI(i, cx + dx, cy + dy, kws, weight=weight)
                  for i, (dx, dy, kws, weight) in enumerate(items))


weighted_pois = st.one_of(random_pois(min_size=1, weights=WEIGHTS),
                          clustered_pois())


def assert_oracle_answer(results, network, pois, keywords, k, eps,
                         weighted) -> None:
    expected = soi_topk(network, pois, keywords, k, eps, weighted)
    if weighted:
        assert_topk_equivalent(ranking(results), expected, rel=REL)
        assert_best_segments(network, pois, keywords, eps, True, results,
                             rel=REL)
    else:
        assert ranking(results) == expected
        assert_best_segments(network, pois, keywords, eps, False, results)


# -- k-SOI -------------------------------------------------------------------

def test_poi_exactly_eps_away_on_a_cell_border():
    """A POI at distance exactly ``eps`` lies a ulp outside the rectangle
    of its grid cell; SOI and BL must still count it."""
    builder = RoadNetworkBuilder()
    corners = [[builder.add_vertex(x, y) for x in (0.0, 0.004)]
               for y in (0.0, 0.004)]
    for i, row in enumerate(corners):
        builder.add_street(f"H{i}", row)
    for j in range(2):
        builder.add_street(f"V{j}", [corners[0][j], corners[1][j]])
    network = builder.build()
    pois = POISet([POI(0, 0.0, 0.005, frozenset({"shop"}), weight=0.25)])
    engine = SOIEngine(network, pois)
    expected = soi_topk(network, pois, ["shop"], 2, 0.001)
    assert len(expected) == 2
    assert ranking(engine.top_k(["shop"], k=2, eps=0.001)) == expected
    assert ranking(BaselineSOI(engine).top_k(["shop"], k=2,
                                             eps=0.001)) == expected


@given(network=random_networks(), pois=weighted_pois, keywords=queries,
       k=ks, eps=eps_values, cell_size=cell_sizes)
@settings(max_examples=30)
def test_soi_matches_oracle(network, pois, keywords, k, eps, cell_size):
    engine = SOIEngine(network, pois, cell_size=cell_size)
    for weighted in (False, True):
        for strategy in AccessStrategy:
            for prune in (True, False):
                engine.invalidate_sessions()
                for _run in ("cold", "warm"):
                    results = engine.top_k(
                        keywords, k=k, eps=eps, strategy=strategy,
                        prune_refinement=prune, weighted=weighted)
                    assert_oracle_answer(results, network, pois, keywords,
                                         k, eps, weighted)


@given(network=random_networks(), pois=weighted_pois, keywords=queries,
       k=ks, eps=eps_values, cell_size=cell_sizes)
@settings(max_examples=30)
def test_baseline_matches_oracle(network, pois, keywords, k, eps,
                                 cell_size):
    engine = SOIEngine(network, pois, cell_size=cell_size)
    baseline = BaselineSOI(engine)
    query = frozenset(keywords)
    for weighted in (False, True):
        exact = {
            segment.id: segment_interest(
                segment_mass_bruteforce(segment, pois, query, eps, weighted),
                segment.length, eps)
            for segment in network.iter_segments()}
        engine.invalidate_sessions()
        for _run in ("cold", "warm"):
            interests = baseline.all_segment_interests(
                keywords, eps=eps, weighted=weighted)
            if weighted:
                assert interests == pytest.approx(exact, rel=REL)
            else:
                assert interests == exact
        engine.invalidate_sessions()
        for _run in ("cold", "warm"):
            results = baseline.top_k(keywords, k=k, eps=eps,
                                     weighted=weighted)
            assert_oracle_answer(results, network, pois, keywords, k, eps,
                                 weighted)


# -- weighted bounds ---------------------------------------------------------
#
# Hypothesis cities are too small for early termination to hinge on the
# max-weight factor of the Lemma 1 bounds, so two designed cities pin it.
# Street A has 20 light POIs in one cell; far-away street B has a POI of
# weight 100 in a cell of its own; ten decoy cells of two light POIs each
# lie near no street.  SL1 pops cells by count, so a cells-first run
# reaches B's heavy cell last.

def _two_street_city(b_length: float,
                     b_spots: list[tuple[float, float, float]]):
    builder = RoadNetworkBuilder()
    for name, x, y, length in (("A", 0.0, 0.0, 0.0003),
                               ("B", 0.05, 0.05, b_length)):
        builder.add_street(name, [builder.add_vertex(x, y),
                                  builder.add_vertex(x + length, y)])
    spots = [(0.00015, 0.0001, 1.0)] * 20 + [
        (0.02 + 0.003 * d, 0.03, 1.0) for d in range(10) for _ in range(2)]
    pois = POISet(POI(i, x, y, frozenset({"shop"}), weight=weight)
                  for i, (x, y, weight) in enumerate(spots + b_spots))
    return builder.build(), pois


def _assert_heavy_street_wins(network, pois) -> None:
    expected = soi_topk(network, pois, ["shop"], 1, 0.0005, weighted=True)
    assert [network.street(sid).name for _i, sid in expected] == ["B"]
    engine = SOIEngine(network, pois)
    for strategy in AccessStrategy:
        results = engine.top_k(["shop"], k=1, eps=0.0005, strategy=strategy,
                               weighted=True)
        assert_oracle_answer(results, network, pois, ["shop"], 1, 0.0005,
                             True)


def test_unseen_upper_bound_scales_with_the_max_weight():
    """B stays unseen while the decoys are popped; UB must count its cell
    at the maximum weight, or LBk from A stops the filter first."""
    _assert_heavy_street_wins(
        *_two_street_city(0.0003, [(0.05015, 0.0501, 100.0)]))


def test_refinement_bound_scales_with_the_max_weight():
    """B is seen through a light cell and left partial; the optimistic
    bound of its unvisited heavy cell must use the maximum weight, or
    refinement prunes it."""
    _assert_heavy_street_wins(*_two_street_city(
        0.0015, [(0.05005, 0.0501, 1.0)] * 3 + [(0.05145, 0.0501, 100.0)]))


# -- describe ----------------------------------------------------------------

describe_params = dict(
    network=random_networks(), photos=random_photos(max_size=30),
    eps=st.sampled_from([0.001, 0.002, 0.004]),
    lam=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    w=st.sampled_from([0.0, 0.5, 1.0]))


@given(k=st.integers(min_value=1, max_value=6), **describe_params)
@settings(max_examples=30)
def test_describers_match_oracle(network, photos, k, eps, lam, w):
    for street_id in network.streets:
        profile = build_street_profile(network, street_id, photos, eps)
        expected = greedy_mmr(profile, k, lam, w)
        assert GreedyDescriber(profile).select(k, lam, w) == expected
        assert STRelDivDescriber(profile).select(k, lam, w) == expected


# -- serving -----------------------------------------------------------------

@given(pois=weighted_pois, keywords=queries, k=ks, **describe_params)
@settings(max_examples=25)
def test_serve_request_matches_oracle(network, pois, photos, keywords, k,
                                      eps, lam, w):
    engine = SOIEngine(network, pois)
    for weighted in (False, True):
        for strategy in AccessStrategy:
            request = SOIRequest(tuple(keywords), k, eps, strategy.value,
                                 weighted)
            assert_oracle_answer(serve_request(engine, photos, request),
                                 network, pois, keywords, k, eps, weighted)
    for street_id in network.streets:
        request = DescribeRequest(street_id, k, eps, lam, w, DEFAULT_RHO)
        assert serve_request(engine, photos, request) == describe_ids(
            network, photos, street_id, k, eps, lam, w, DEFAULT_RHO)


@given(pois=weighted_pois, keywords=queries,
       k=st.integers(min_value=2, max_value=6), **describe_params)
@settings(max_examples=25)
def test_cached_serve_matches_oracle(network, pois, photos, keywords, k,
                                     eps, lam, w):
    engine = SOIEngine(network, pois)
    cache = ResultCache(registry=MetricsRegistry(),
                        generation=engine.index_generation)

    def soi(request_k: int, group_k: int | None = None):
        return serve_request_cached(
            engine, photos, SOIRequest(tuple(keywords), request_k, eps),
            cache, group_k=group_k)

    def oracle(request_k: int):
        return soi_topk(network, pois, keywords, request_k, eps)

    # A miss executed at the group's k_max, sliced to the request's k.
    assert ranking(soi(k, group_k=k + 3)) == oracle(k)
    # A dominated-k hit sliced from the k_max entry, then its exact hit.
    assert ranking(soi(k - 1)) == oracle(k - 1)
    assert ranking(soi(k + 3)) == oracle(k + 3)
    stats = cache.stats()
    assert stats["misses"] == 1 and stats["kmax_elevations"] == 1
    assert stats["dominated_hits"] == 1 and stats["exact_hits"] == 1

    street_id = min(network.streets)
    request = DescribeRequest(street_id, k, eps, lam, w, DEFAULT_RHO)
    expected = describe_ids(network, photos, street_id, k, eps, lam, w,
                            DEFAULT_RHO)
    assert serve_request_cached(engine, photos, request, cache) == expected
    assert serve_request_cached(engine, photos, request, cache) == expected
    assert cache.stats()["exact_hits"] == 2
