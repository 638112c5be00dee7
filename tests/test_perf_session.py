"""Unit tests for :mod:`repro.perf.session` and :mod:`repro.perf.parallel`."""

from __future__ import annotations

import pytest

from repro.core.soi import DEFAULT_EPS
from repro.errors import QueryError
from repro.perf.parallel import default_jobs, run_parallel
from repro.perf.session import QuerySessionPool


@pytest.fixture()
def engine(small_city):
    from repro.core.soi import SOIEngine

    return SOIEngine(small_city.network, small_city.pois)


class TestQuerySession:
    def test_cell_upper_bounds_cached_and_positive(self, engine):
        session = engine.session_for(["shop"])
        bounds = session.cell_upper_bounds()
        assert bounds.entries and all(ub > 0 for _cell, ub in bounds.entries)
        assert session.cell_upper_bounds() is bounds

    def test_mass_cache_keyed_by_eps_and_weighted(self, engine):
        session = engine.session_for(["shop"])
        layout = engine.store_layout(0.0005)
        memo, reused = session.store_mass_slots(layout, False)
        assert not reused
        assert session.store_mass_slots(layout, False) == (memo, True)
        assert session.store_mass_slots(layout, True)[0] is not memo
        assert session.store_mass_slots(engine.store_layout(0.001),
                                        False)[0] is not memo

    def test_cached_masses_counts_all_memos(self, engine):
        """A cold run materialises every relevant slot of its
        ``(eps, weighted)`` in one pass, counted as its misses, and the
        session keeps exactly those slots."""
        session = engine.session_for(["shop"])
        layout = engine.store_layout(DEFAULT_EPS)
        for weighted in (False, True):
            _res, stats = engine.top_k_with_stats(["shop"], k=5,
                                                  weighted=weighted)
            memo, reused = session.store_mass_slots(layout, weighted)
            assert reused
            assert stats.kernel_calls == 1
            assert stats.mass_cache_misses > 0
            assert memo.num_relevant == stats.mass_cache_misses


class TestQuerySessionPool:
    def test_same_signature_same_session(self, engine):
        pool = engine.sessions
        assert engine.session_for(["shop"]) is engine.session_for(["SHOP"])
        assert len(pool) == 1

    def test_lru_eviction(self, engine):
        pool = QuerySessionPool(engine.poi_index, maxsize=2)
        first = pool.get(frozenset({"shop"}))
        pool.get(frozenset({"food"}))
        first_again = pool.get(frozenset({"shop"}))  # refresh LRU order
        assert first_again is first
        pool.get(frozenset({"bar"}))  # evicts "food", not "shop"
        assert pool.evictions == 1
        assert frozenset({"shop"}) in pool
        assert frozenset({"food"}) not in pool

    def test_maxsize_validated(self, engine):
        with pytest.raises(ValueError):
            QuerySessionPool(engine.poi_index, maxsize=0)

    def test_peek_does_not_create(self, engine):
        assert engine.sessions.peek(frozenset({"nothere"})) is None
        assert len(engine.sessions) == 0

    def test_invalidate_clears_and_bumps_generation(self, engine):
        session = engine.session_for(["shop"])
        generation = engine.sessions.generation
        engine.invalidate_sessions()
        assert len(engine.sessions) == 0
        assert engine.sessions.generation == generation + 1
        assert engine.session_for(["shop"]) is not session

    def test_rebuild_indexes_invalidates(self, engine):
        session = engine.session_for(["shop"])
        old_index = engine.poi_index
        engine.rebuild_indexes()
        assert engine.poi_index is not old_index
        fresh = engine.session_for(["shop"])
        assert fresh is not session
        # The fresh session must read the *new* index.
        assert fresh._poi_index is engine.poi_index

    def test_rebuild_indexes_results_unchanged(self, engine):
        before = engine.top_k(["shop"], k=5)
        engine.rebuild_indexes()
        assert engine.top_k(["shop"], k=5) == before


class TestSessionStats:
    def test_warm_query_reports_session_reuse(self, engine):
        engine.invalidate_sessions()
        _res, cold = engine.top_k_with_stats(["shop"], k=5)
        _res, warm = engine.top_k_with_stats(["shop"], k=5)
        assert not cold.session_reused
        assert warm.session_reused
        assert warm.mass_cache_hits > 0

    def test_invalidated_sessions_never_reuse(self, engine):
        engine.top_k(["shop"], k=5)
        engine.invalidate_sessions()
        _res, stats = engine.top_k_with_stats(["shop"], k=5)
        assert not stats.session_reused
        # Its own pass, not the dropped session's slot masses.
        assert stats.mass_cache_hits == 0
        assert stats.kernel_calls == 1 and stats.mass_cache_misses > 0

    def test_counters_dict_covers_all_counters(self, engine):
        _res, stats = engine.top_k_with_stats(["shop"], k=5)
        counters = stats.counters()
        assert counters["cell_visits"] == stats.cell_visits
        assert counters["kernel_calls"] == stats.kernel_calls
        assert "mass_cache_hits" in counters
        assert "session_reused" in counters

    def test_empty_keywords_rejected_before_session(self, engine):
        with pytest.raises(QueryError):
            engine.top_k([], k=5)
        assert len(engine.sessions) == 0


class TestRunParallel:
    def test_results_in_submission_order(self):
        tasks = [lambda i=i: i * i for i in range(20)]
        assert run_parallel(tasks, jobs=4) == [i * i for i in range(20)]

    def test_jobs_one_is_sequential(self):
        order: list[int] = []

        def make(i):
            def task():
                order.append(i)
                return i
            return task

        assert run_parallel([make(i) for i in range(5)], jobs=1) == \
            list(range(5))
        assert order == list(range(5))

    def test_exceptions_propagate(self):
        def boom():
            raise RuntimeError("task failed")

        with pytest.raises(RuntimeError, match="task failed"):
            run_parallel([boom, lambda: 1], jobs=2)

    def test_jobs_validated(self):
        with pytest.raises(ValueError):
            run_parallel([lambda: 1], jobs=0)

    def test_default_jobs_positive(self):
        assert 1 <= default_jobs() <= 8


class TestParallelQueries:
    def test_concurrent_queries_match_sequential(self, engine, small_city):
        from repro.core.soi import SOIEngine

        keyword_sets = [["shop"], ["food"], ["shop", "food"], ["shop"]]
        reference = SOIEngine(small_city.network, small_city.pois)
        expected = [reference.top_k(kws, k=5) for kws in keyword_sets]
        results = run_parallel(
            [lambda kws=kws: engine.top_k(kws, k=5)
             for kws in keyword_sets],
            jobs=4)
        assert results == expected
