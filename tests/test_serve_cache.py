"""Result caching and request coalescing on the serve path.

``serve_request_cached`` is exercised in-process against the uncached
``serve_request`` reference (bit-identity is the whole contract); the
multiprocess ``EngineServer`` cache/coalescing tests keep their pools
small like the rest of the serving suite.  The Zipf repeat-mix workload
generator is tested here too, since its only consumer is the cached
throughput bench.
"""

from __future__ import annotations

import pytest

from repro.core.soi import AccessStrategy, SOIEngine
from repro.datagen import build_preset
from repro.errors import QueryError
from repro.obs.metrics import MetricsRegistry
from repro.perf.result_cache import ResultCache, request_cache_key
from repro.serve import EngineServer
from repro.serve.server import (
    DescribeRequest,
    SOIRequest,
    serve_request,
    serve_request_cached,
)
from repro.serve.workload import make_workload, make_zipf_workload


def make_cache(engine, **kwargs) -> ResultCache:
    kwargs.setdefault("registry", MetricsRegistry())
    kwargs.setdefault("generation", engine.index_generation)
    return ResultCache(**kwargs)


# -- in-process cached serving ------------------------------------------------

def test_cached_serving_is_bit_identical_on_mixed_workload(small_city,
                                                           small_engine):
    cache = make_cache(small_engine)
    requests = make_workload(small_engine, small_city.photos,
                             num_queries=24, seed=3)
    # Repeat the stream so the second pass hits; identity must hold on
    # both passes, misses and hits alike.
    stream = requests + requests
    for request in stream:
        cached = serve_request_cached(small_engine, small_city.photos,
                                      request, cache)
        assert cached == serve_request(small_engine, small_city.photos,
                                       request)
    stats = cache.stats()
    assert stats["hits"] >= len(requests)


def test_dominated_k_slices_match_for_soi(small_city, small_engine):
    cache = make_cache(small_engine)
    big = SOIRequest(keywords=("food", "shop"), k=50)
    serve_request_cached(small_engine, None, big, cache)
    for k in (1, 5, 25):
        small = SOIRequest(keywords=("food", "shop"), k=k)
        cached = serve_request_cached(small_engine, None, small, cache)
        assert cached == serve_request(small_engine, None, small)
    assert cache.stats()["dominated_hits"] >= 1
    assert cache.stats()["insertions"] == 1


def test_describe_requests_never_reuse_across_k(small_city, small_engine):
    """Equation 10's k-dependence: each describe k computes fresh."""
    cache = make_cache(small_engine)
    street = small_engine.top_k(["shop"], k=1)[0].street_id
    for k in (20, 5, 10):
        request = DescribeRequest(street_id=street, k=k)
        cached = serve_request_cached(small_engine, small_city.photos,
                                      request, cache)
        assert cached == serve_request(small_engine, small_city.photos,
                                       request)
    stats = cache.stats()
    assert stats["dominated_hits"] == 0
    assert stats["insertions"] == 3  # one entry per k — no cross-k reuse


def test_cache_invalidated_across_index_generations(small_city):
    # A private engine: rebuild_indexes mutates generation state, which
    # must not leak into the session-scoped small_engine fixture.
    engine = SOIEngine(small_city.network, small_city.pois)
    cache = make_cache(engine)
    request = SOIRequest(keywords=("shop",), k=10)
    before = serve_request_cached(engine, None, request, cache)
    engine.rebuild_indexes()
    after = serve_request_cached(engine, None, request, cache)
    assert after == before  # same data rebuilt: same exact answer...
    assert cache.stats()["invalidations"] == 1  # ...but computed fresh
    assert cache.generation == engine.index_generation


# -- the multiprocess server --------------------------------------------------

def test_server_cache_is_bit_identical_and_hits_on_repeats():
    city = build_preset("vienna", scale=0.1)
    engine = SOIEngine(city.network, city.pois)
    requests = make_zipf_workload(engine, city.photos, num_queries=24,
                                  seed=2, pool_size=6)
    expected = [serve_request(engine, city.photos, request)
                for request in requests]
    with EngineServer.for_engine(engine, city.photos, workers=1,
                                 micro_batch=4, cache=True) as server:
        assert server.cache_enabled
        payloads = server.run(requests)
        stats = server.cache_stats()
        telemetry = server.telemetry()
    assert payloads == expected
    # 24 Zipf draws over 6 distinct requests must repeat: every repeat is
    # a parent-cache hit, a coalesced waiter, or a worker-cache hit.
    assert stats["hits"] + stats["coalesced_waiters"] > 0
    assert stats["hit_rate"] > 0.0
    assert telemetry["cache"] == stats


PAGES = [SOIRequest(keywords=signature, k=k, eps=eps)
         for k in range(10, 90, 10)
         for signature in (("food", "shop"), ("shop",))
         for eps in (0.0003, 0.0005)]
"""Two signatures times two eps, paged at k = 10, 20, ..., 80."""


def test_server_serves_later_pages_from_complete_rankings():
    city = build_preset("vienna", scale=0.25)
    engine = SOIEngine(city.network, city.pois)
    expected = [serve_request(engine, None, request) for request in PAGES]
    with EngineServer.for_engine(engine, workers=1, micro_batch=4,
                                 cache=True) as server:
        payloads, service_s = server.run_with_stats(PAGES)
        stats = server.cache_stats()
        executed = server.metrics().counter("soi.queries")
    assert payloads == expected
    assert stats["exhausted_hits"] > 0
    assert executed < len(PAGES)
    # A full later page answered in the parent (zero service time) can
    # only come from a complete ranking a worker shipped beside its page.
    assert any(served == 0.0 and len(payload) == request.k > 10
               for request, payload, served
               in zip(PAGES, payloads, service_s))


def test_second_page_after_an_incomplete_algorithm1_run_is_a_hit():
    """Algorithm 1 at k = 1 stops on LB_k >= UB > 0 on this city, so its
    run is not complete; the served k = 1 page still ships the complete
    ranking, and the k = 50 page is answered from it in the parent."""
    from tests.test_oracle_differential import _two_street_city

    network, pois = _two_street_city(0.0003, [(0.05015, 0.0501, 1.0)])
    engine = SOIEngine(network, pois)
    pages = [SOIRequest(keywords=("shop",), k=k, strategy="cells_first")
             for k in (1, 50)]
    _ranking, stats = engine.top_k_with_stats(
        ["shop"], 1, strategy=AccessStrategy.CELLS_FIRST)
    assert not stats.complete
    with EngineServer.for_engine(engine, workers=1, cache=True) as server:
        served = [server.run_with_stats([page]) for page in pages]
        cache = server.cache_stats()
        executed = server.metrics().counter("soi.queries")
    assert [payloads[0] for payloads, _service in served] == [
        engine.top_k(["shop"], page.k, strategy=AccessStrategy.CELLS_FIRST)
        for page in pages]
    assert executed == 1
    assert cache["exhausted_hits"] == 1
    assert served[1][1] == [0.0]  # answered in the parent


def test_strategies_share_one_cache_entry(small_engine):
    """Every strategy is served the same ranking, so a request that
    differs only in strategy is a hit."""
    cache = make_cache(small_engine)
    for strategy in ("alternate", "cells_first"):
        request = SOIRequest(keywords=("shop",), k=10, strategy=strategy)
        assert serve_request_cached(small_engine, None, request, cache) == \
            serve_request(small_engine, None, request)
    stats = cache.stats()
    assert (stats["misses"], stats["hits"], stats["insertions"]) == (1, 1, 1)


def test_unknown_strategy_is_a_query_error_before_any_lookup(small_engine):
    cache = make_cache(small_engine)
    serve_request_cached(small_engine, None,
                         SOIRequest(keywords=("shop",), k=10), cache)
    bogus = SOIRequest(keywords=("shop",), k=10, strategy="bogus")
    for serve in (lambda: serve_request(small_engine, None, bogus),
                  lambda: serve_request_cached(small_engine, None, bogus,
                                               cache),
                  lambda: request_cache_key(bogus),
                  lambda: small_engine.top_k(["shop"], 10,
                                             strategy="bogus")):
        with pytest.raises(QueryError, match="strategy"):
            serve()
    assert cache.stats()["hits"] == 0


def test_server_delivers_unknown_strategy_error_after_a_cached_page():
    city = build_preset("vienna", scale=0.1)
    engine = SOIEngine(city.network, city.pois)
    good = SOIRequest(keywords=("shop",), k=5)
    with EngineServer.for_engine(engine, workers=1, cache=True) as server:
        assert server.run([good]) == [serve_request(engine, None, good)]
        server.submit(SOIRequest(keywords=("shop",), k=5, strategy="bogus"))
        with pytest.raises(QueryError, match="strategy"):
            server.next_result(timeout=30.0)
        assert server.run([good]) == [serve_request(engine, None, good)]


def test_server_without_cache_reports_none():
    city = build_preset("vienna", scale=0.1)
    engine = SOIEngine(city.network, city.pois)
    with EngineServer.for_engine(engine, workers=1) as server:
        assert not server.cache_enabled
        assert server.telemetry()["cache"] is None


# -- the Zipf repeat-mix workload ---------------------------------------------

@pytest.fixture(scope="module")
def zipf_engine():
    city = build_preset("vienna", scale=0.1)
    return city, SOIEngine(city.network, city.pois)


def test_zipf_workload_is_deterministic(zipf_engine):
    city, engine = zipf_engine
    first = make_zipf_workload(engine, city.photos, num_queries=40, seed=7)
    again = make_zipf_workload(engine, city.photos, num_queries=40, seed=7)
    other = make_zipf_workload(engine, city.photos, num_queries=40, seed=8)
    assert first == again
    assert first != other


def test_zipf_workload_repeats_concentrate_on_the_hot_pool(zipf_engine):
    city, engine = zipf_engine
    requests = make_zipf_workload(engine, city.photos, num_queries=64,
                                  seed=1, pool_size=8)
    distinct = set(requests)
    assert len(requests) == 64
    assert len(distinct) <= 8  # every request drawn from the hot pool
    # Zipf skew: the hottest request dominates the uniform share.
    top_count = max(requests.count(r) for r in distinct)
    assert top_count > 64 / 8


def test_all_unique_workload_defeats_dominated_k_reuse(zipf_engine):
    """unique_frac=1.0 is the cache-overhead workload: no request may be
    servable from any earlier one, even by dominated-k slicing."""
    city, engine = zipf_engine
    requests = make_zipf_workload(engine, city.photos, num_queries=48,
                                  seed=5, unique_frac=1.0)
    assert len(requests) == 48
    deepest_k: dict[tuple, int] = {}
    for request in requests:
        key = request_cache_key(request)
        assert request.k > deepest_k.get(key, 0), \
            "a one-off would be served from an earlier, deeper entry"
        deepest_k[key] = request.k


def test_zipf_workload_validation(zipf_engine):
    city, engine = zipf_engine
    with pytest.raises(ValueError):
        make_zipf_workload(engine, city.photos, num_queries=0)
    with pytest.raises(ValueError):
        make_zipf_workload(engine, city.photos, s=0.0)
    with pytest.raises(ValueError):
        make_zipf_workload(engine, city.photos, unique_frac=1.5)
