"""Result caching on the serve path.

``serve_request_cached`` is exercised in-process against the uncached
``serve_request`` reference (bit-identity is the whole contract); the
multiprocess ``EngineServer`` cache tests keep their pools small like
the rest of the serving suite.  The columnar ranking a worker's cache
stores and ships (``SOIRanking``) is tested here too.
"""

from __future__ import annotations

import dataclasses
import os
import pickle

import numpy as np
import pytest

from repro.analysis import contracts
from repro.core.results import SOIRanking, SOIResult
from repro.core.soi import AccessStrategy, SOIEngine
from repro.core.soi_baseline import BaselineSOI
from repro.datagen import build_preset
from repro.errors import ContractViolation, QueryError
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.perf.result_cache import (
    ResultCache,
    estimate_payload_bytes,
    request_cache_key,
)
from repro.serve import EngineServer
from repro.serve.server import (
    DescribeRequest,
    SOIRequest,
    _serve_cached,
    serve_request,
    serve_request_cached,
)
from repro.serve.workload import make_workload


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
    stats = cache.stats()
    assert (stats["misses"], stats["hits"], stats["insertions"]) == (1, 3, 1)


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
    assert stats["hits"] == 0
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
    distinct = make_workload(engine, city.photos, num_queries=6, seed=2)
    requests = distinct * 4
    expected = [serve_request(engine, city.photos, request)
                for request in requests]
    with EngineServer.for_engine(engine, city.photos, workers=1,
                                 micro_batch=4, cache=True) as server:
        assert server.cache_enabled
        payloads = server.run(requests)
        stats = server.cache_stats()
        telemetry = server.telemetry()
    assert payloads == expected
    # Each request is a parent-cache hit, a worker-cache hit or computed
    # by the one worker, which computes each distinct request at most once.
    assert stats["hits"] >= len(requests) - len(set(distinct))
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
        parent_entries = [entry for entry, _nbytes
                          in server._result_cache._entries.values()]
    assert payloads == expected
    # Rankings arrive as columns; the parent keeps each as the result
    # list its hits slice.
    assert parent_entries
    assert all(type(entry) is list for entry in parent_entries)
    assert stats["hits"] > 0
    assert executed < len(PAGES)
    # The one worker computes each (signature, eps) pair once, at its
    # first page, k = 10, and the parent stores the ranking it ships:
    # one insertion per pair in each cache.  Every later page is a hit.
    pairs = len({(page.keywords, page.eps) for page in PAGES})
    assert stats["insertions"] == 2 * pairs
    # So a full page deeper than k = 10 answered in the parent (zero
    # service time) can only come from the complete ranking a worker
    # shipped beside a k = 10 page.
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
    pages = [SOIRequest(keywords=("shop",), k=k) for k in (1, 50)]
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
    assert cache["hits"] == 1
    assert served[1][1] == [0.0]  # answered in the parent


INVALID_PAGES = (
    (SOIRequest(keywords=("shop",), k=0), "k must be at least 1"),
    (SOIRequest(keywords=("shop",), k=-1), "k must be at least 1"),
)
"""k-SOI requests the engine refuses, with their error messages: a
cached ranking of ``("shop",)`` must not answer them by slicing."""


def test_refused_pages_are_query_errors_before_any_lookup(small_engine):
    cache = make_cache(small_engine)
    serve_request_cached(small_engine, None,
                         SOIRequest(keywords=("shop",), k=10), cache)
    for bogus, message in INVALID_PAGES:
        for serve in (
                lambda: serve_request(small_engine, None, bogus),
                lambda: serve_request_cached(small_engine, None, bogus,
                                             cache),
                lambda: request_cache_key(bogus),
                lambda: small_engine.top_k(["shop"], bogus.k)):
            with pytest.raises(QueryError, match=message):
                serve()
    assert cache.stats()["hits"] == 0


def test_server_delivers_refused_page_errors_after_a_cached_page():
    city = build_preset("vienna", scale=0.1)
    engine = SOIEngine(city.network, city.pois)
    good = SOIRequest(keywords=("shop",), k=5)
    with EngineServer.for_engine(engine, workers=1, cache=True) as server:
        assert server.run([good]) == [serve_request(engine, None, good)]
        for bogus, message in INVALID_PAGES:
            server.submit(bogus)
            with pytest.raises(QueryError, match=message):
                server.next_result(timeout=30.0)
        assert server.run([good]) == [serve_request(engine, None, good)]


def test_in_flight_repeats_reach_the_worker_cache():
    """A repeat of a request still in flight crosses the task pipe, and
    the worker's cache answers it: the worker serves its tasks in order
    and stores each entry before it serves the next."""
    city = build_preset("vienna", scale=0.1)
    engine = SOIEngine(city.network, city.pois)
    describe = DescribeRequest(
        street_id=engine.top_k(["shop"], k=1)[0].street_id, k=5)
    requests = [describe, describe,
                SOIRequest(keywords=("food", "shop"), k=10),
                SOIRequest(keywords=("food", "shop"), k=5)]
    with EngineServer.for_engine(engine, city.photos, workers=1,
                                 micro_batch=4, cache=True) as server:
        seqs = [server.submit(request) for request in requests]
        arrivals = {}
        for _ in requests:
            seq, payload, service_s = server.next_result(timeout=30.0)
            arrivals[seq] = (payload, service_s)
        metrics = server.metrics()
        stats = server.cache_stats()
    assert [arrivals[seq][0] for seq in seqs] == [
        serve_request(engine, city.photos, request) for request in requests]
    # Under REPRO_CHECK=1 the worker also re-derives the k = 5 page it
    # sliced from its cached ranking (contracts.check_prefix_slice): one
    # more ranking, computed only to be compared, and counted apart from
    # the executed query.  The spawned worker reads REPRO_CHECK from the
    # environment it inherits.
    checks = contracts._env_enabled(os.environ.get("REPRO_CHECK"))
    assert metrics.counter("soi.queries") == 1
    assert metrics.counter("soi.rederivations") == int(checks)
    assert metrics.counter("describe.queries") == 1
    # Every request crossed the pipe, and the worker's cache answered
    # both repeats.
    assert all(service_s > 0 for _payload, service_s in arrivals.values())
    assert stats["hits"] == 2
    assert stats["coalesced_waiters"] == 0


def _served_counts(city, check: bool) -> tuple[int, dict[str, int]]:
    """Pages k = 10, 20, 30 of ``("shop",)`` and a describe served twice,
    through one cache over a fresh engine, with the runtime contracts
    ``check``: the cache's misses, and how far each ``soi.*`` counter and
    ``describe.queries`` moved (counters that did not move left out)."""
    engine = SOIEngine(city.network, city.pois)
    cache = make_cache(engine)
    describe = DescribeRequest(
        street_id=engine.top_k(["shop"], k=1)[0].street_id, k=10_000)
    registry = obs_metrics.REGISTRY

    def counts() -> dict[str, int]:
        moved = {f"soi.{name}": value for name, value
                 in registry.counters_with_prefix("soi.").items()}
        moved["describe.queries"] = registry.counter("describe.queries")
        return moved

    before = counts()
    previous = contracts.ENABLED
    contracts.enable_contracts(check)
    try:
        for k in (10, 20, 30):
            serve_request_cached(engine, None, SOIRequest(("shop",), k),
                                 cache)
        for _repeat in range(2):
            serve_request_cached(engine, city.photos, describe, cache)
    finally:
        contracts.enable_contracts(previous)
    moved = {name: value - before.get(name, 0)
             for name, value in counts().items()}
    return cache.stats()["misses"], {name: delta for name, delta
                                     in moved.items() if delta}


@pytest.mark.parametrize("check", [False, True], ids=["plain", "contracts"])
def test_contract_rederivations_are_not_executed_queries(check):
    """Pages k = 10, 20, 30 of one signature through one cache execute one
    ranking; the prefix-slice contract's re-derivations of the two sliced
    hits count as ``soi.rederivations``, and no other ``soi.*`` counter
    moves by more than with the contracts off.  A repeated describe
    whose street holds fewer photos than k is a hit on its own stored
    summary and executes once."""
    city = build_preset("vienna", scale=0.25)
    misses, counted = _served_counts(city, check)
    assert misses == 2
    assert counted["soi.queries"] == 1
    assert counted.get("soi.rederivations", 0) == (2 if check else 0)
    assert counted["describe.queries"] == 1
    _misses, other = _served_counts(city, not check)
    counted.pop("soi.rederivations", None)
    other.pop("soi.rederivations", None)
    assert counted == other


def test_server_without_cache_reports_none():
    city = build_preset("vienna", scale=0.1)
    engine = SOIEngine(city.network, city.pois)
    with EngineServer.for_engine(engine, workers=1) as server:
        assert not server.cache_enabled
        assert server.telemetry()["cache"] is None


# -- the columnar ranking ----------------------------------------------------

def _worker_entry(engine, request):
    """The entry a worker's cache stores, and ships, for ``request``."""
    _payload, entry = _serve_cached(engine, None, request,
                                    make_cache(engine))
    return entry


def test_worker_entry_pickles_as_columns(small_engine):
    """A k-SOI entry crosses the result pipe as its columns: no
    ``SOIResult`` in the pickle stream, and the same rows on the far
    side."""
    entry = _worker_entry(small_engine, SOIRequest(keywords=("shop",), k=5))
    assert isinstance(entry, SOIRanking) and len(entry) > 5
    data = pickle.dumps(entry, pickle.HIGHEST_PROTOCOL)
    assert b"SOIResult" not in data
    back = pickle.loads(data)
    assert isinstance(back, SOIRanking)
    assert list(back) == list(entry)
    assert [column.dtype for column in (back.street_ids, back.interests,
                                        back.best_segment_ids)] == [
        np.int64, np.float64, np.int64]


def test_ranking_slices_are_fresh_result_lists(small_engine):
    ranking = BaselineSOI(small_engine).ranking(["shop"])
    rows = list(ranking)
    assert len(rows) == len(ranking) > 1
    assert all(isinstance(row, SOIResult) for row in rows)
    for k in (0, 1, len(ranking), len(ranking) + 5):
        page = ranking[:k]
        assert type(page) is list and page == rows[:k]
    with pytest.raises(TypeError):
        ranking[0]
    with pytest.raises(ValueError):
        ranking.interests[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        ranking.street_names = ()
    empty = BaselineSOI(small_engine).ranking(["no-such-keyword"])
    assert len(empty) == 0 and empty[:5] == [] and list(empty) == []


def test_mutating_a_hit_leaves_the_next_hit_alone(small_engine):
    cache = make_cache(small_engine)
    request = SOIRequest(keywords=("food",), k=5)
    expected = serve_request(small_engine, None, request)
    serve_request_cached(small_engine, None, request, cache)
    hit = serve_request_cached(small_engine, None, request, cache)
    assert hit == expected
    hit[0] = None
    hit.clear()
    assert serve_request_cached(small_engine, None, request, cache) == \
        expected
    assert cache.stats()["hits"] == 2


def test_corrupt_columnar_entry_fails_the_prefix_slice_contract(
        small_engine):
    """One interest corrupted in a stored columnar entry: under
    ``REPRO_CHECK=1`` the next sliced hit is re-derived and rejected;
    without the contracts it is served as stored."""
    request = SOIRequest(keywords=("shop",), k=3)
    ranking = _worker_entry(small_engine, request)
    interests = ranking.interests.copy()
    interests[1] = np.nextafter(interests[1], np.inf)
    corrupt = SOIRanking(ranking.street_ids, interests,
                         ranking.best_segment_ids, ranking.street_names)
    previous = contracts.ENABLED
    try:
        for checks in (True, False):
            contracts.enable_contracts(checks)
            cache = make_cache(small_engine)
            cache.store(request_cache_key(request), corrupt)
            if checks:
                with pytest.raises(ContractViolation, match="prefix-slice"):
                    serve_request_cached(small_engine, None, request, cache)
            else:
                assert serve_request_cached(small_engine, None, request,
                                            cache) == corrupt[:3]
            cache.invalidate()
            cache.store(request_cache_key(request), ranking)
            assert serve_request_cached(small_engine, None, request,
                                        cache) == ranking[:3]
    finally:
        contracts.enable_contracts(previous)


def test_columnar_entry_size_grows_with_its_rows(small_engine):
    ranking = _worker_entry(small_engine, SOIRequest(keywords=("shop",), k=1))
    sizes = [estimate_payload_bytes(SOIRanking(
        ranking.street_ids[:n], ranking.interests[:n],
        ranking.best_segment_ids[:n], ranking.street_names[:n]))
        for n in (0, 1, len(ranking) // 2, len(ranking))]
    assert sizes == sorted(set(sizes))
