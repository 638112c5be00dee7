"""Tests for the SOI algorithm (Algorithm 1) against the BL baseline.

The SOI algorithm must return *a* correct top-k: the same interest values
as exhaustive evaluation, and the same streets except possibly for ties at
the k-th value (Problem 1 permits any tie-breaking).
"""

from __future__ import annotations

import pytest

from repro.core.soi import AccessStrategy, SOIEngine
from repro.core.soi_baseline import BaselineSOI
from repro.errors import QueryError

from tests.oracle import assert_topk_equivalent, ranking, soi_topk


class TestAgainstBruteForce:
    @pytest.mark.parametrize("keywords", [["shop"], ["shop", "food"],
                                          ["food"], ["museum"]])
    def test_cross_fixture(self, cross_network, cross_pois, keywords):
        engine = SOIEngine(cross_network, cross_pois, cell_size=0.2)
        results = engine.top_k(keywords, k=2, eps=0.15)
        expected = soi_topk(cross_network, cross_pois, keywords, 2, 0.15)
        assert [r.interest for r in results] == pytest.approx(
            [interest for interest, _sid in expected])
        assert [r.street_id for r in results] == \
            [sid for _interest, sid in expected]

    def test_unknown_keyword_returns_empty(self, cross_network, cross_pois):
        engine = SOIEngine(cross_network, cross_pois, cell_size=0.2)
        assert engine.top_k(["nonexistent"], k=3, eps=0.15) == []

    def test_k_larger_than_interesting_streets(self, cross_network,
                                               cross_pois):
        engine = SOIEngine(cross_network, cross_pois, cell_size=0.2)
        results = engine.top_k(["museum"], k=10, eps=0.15)
        # only Main Street has the museum POI nearby
        assert len(results) == 1
        assert results[0].street_name == "Main Street"


class TestAgainstBaseline:
    QUERIES = [
        (["shop"], 10),
        (["religion"], 5),
        (["food", "services"], 25),
        (["religion", "education", "food", "services"], 50),
        (["shop"], 1),
    ]

    @pytest.mark.parametrize("keywords,k", QUERIES)
    def test_small_city_equivalence(self, small_city, small_engine,
                                    keywords, k):
        baseline = BaselineSOI(small_engine)
        results = small_engine.top_k(keywords, k=k, eps=0.0005)
        expected = baseline.top_k(keywords, k=k, eps=0.0005)
        assert_topk_equivalent(ranking(results), ranking(expected))

    @pytest.mark.parametrize("strategy", list(AccessStrategy))
    def test_all_access_strategies_agree(self, small_city, small_engine,
                                         strategy):
        baseline = BaselineSOI(small_engine).top_k(["shop"], k=10,
                                                   eps=0.0005)
        results = small_engine.top_k(["shop"], k=10, eps=0.0005,
                                     strategy=strategy)
        assert_topk_equivalent(ranking(results), ranking(baseline))

    @pytest.mark.parametrize("prune", [True, False])
    def test_refinement_pruning_is_transparent(self, small_engine, prune):
        baseline = BaselineSOI(small_engine).top_k(["food"], k=15,
                                                   eps=0.0005)
        results = small_engine.top_k(["food"], k=15, eps=0.0005,
                                     prune_refinement=prune)
        assert_topk_equivalent(ranking(results), ranking(baseline))

    @pytest.mark.parametrize("eps", [0.0002, 0.0005, 0.0012])
    def test_eps_variations(self, small_engine, eps):
        baseline = BaselineSOI(small_engine).top_k(["shop"], k=10, eps=eps)
        results = small_engine.top_k(["shop"], k=10, eps=eps)
        assert_topk_equivalent(ranking(results), ranking(baseline))


class TestResultContract:
    def test_sorted_descending_with_id_ties(self, small_engine):
        results = small_engine.top_k(["food"], k=20, eps=0.0005)
        for prev, nxt in zip(results, results[1:]):
            assert (prev.interest, -prev.street_id) >= \
                (nxt.interest, -nxt.street_id) or \
                prev.interest > nxt.interest

    def test_no_zero_interest_streets(self, small_engine):
        results = small_engine.top_k(["religion"], k=100, eps=0.0005)
        assert all(r.interest > 0 for r in results)

    def test_best_segment_belongs_to_street(self, small_city, small_engine):
        for res in small_engine.top_k(["shop"], k=10, eps=0.0005):
            segment = small_city.network.segment(res.best_segment_id)
            assert segment.street_id == res.street_id

    def test_best_segment_attains_interest(self, small_city, small_engine):
        for res in small_engine.top_k(["shop"], k=5, eps=0.0005):
            exact = small_engine.segment_exact_interest(
                res.best_segment_id, ["shop"], eps=0.0005)
            assert exact == pytest.approx(res.interest)

    def test_street_names_populated(self, small_engine):
        for res in small_engine.top_k(["shop"], k=5, eps=0.0005):
            assert res.street_name


class TestWeightedQueries:
    def test_weighted_matches_weighted_bruteforce(self, cross_network):
        from repro.data.poi import POI, POISet

        pois = POISet([
            POI(0, 0.1, 0.05, frozenset({"shop"}), weight=5.0),
            POI(1, 0.01, 0.6, frozenset({"shop"}), weight=1.0),
            POI(2, 0.01, -0.6, frozenset({"shop"}), weight=1.0),
        ])
        engine = SOIEngine(cross_network, pois, cell_size=0.2)
        weighted = engine.top_k(["shop"], k=2, eps=0.15, weighted=True)
        expected = soi_topk(cross_network, pois, ["shop"], 2, 0.15,
                            weighted=True)
        assert [r.interest for r in weighted] == pytest.approx(
            [interest for interest, _sid in expected])

    def test_weighted_changes_ranking(self, cross_network):
        from repro.data.poi import POI, POISet

        # One heavy POI on Cross Street vs two light ones on Main Street.
        pois = POISet([
            POI(0, 0.02, 0.5, frozenset({"shop"}), weight=10.0),
            POI(1, 0.5, 0.02, frozenset({"shop"})),
            POI(2, 0.6, -0.02, frozenset({"shop"})),
        ])
        engine = SOIEngine(cross_network, pois, cell_size=0.2)
        unweighted = engine.top_k(["shop"], k=1, eps=0.1)
        weighted = engine.top_k(["shop"], k=1, eps=0.1, weighted=True)
        assert unweighted[0].street_name == "Main Street"
        assert weighted[0].street_name == "Cross Street"


class TestStatsAndValidation:
    def test_stats_phases_recorded(self, small_engine):
        _results, stats = small_engine.top_k_with_stats(["shop"], k=5,
                                                        eps=0.0005)
        assert set(stats.phase_seconds) == {"build", "filter", "refine"}
        assert stats.total_seconds > 0
        assert stats.segments_seen >= stats.segments_finalized_in_filter

    def test_soi_examines_fewer_segments_for_selective_queries(
            self, small_city, small_engine):
        _res, stats = small_engine.top_k_with_stats(["religion"], k=5,
                                                    eps=0.0005)
        assert stats.segments_seen < len(small_city.network.segments)

    def test_invalid_queries_raise(self, small_engine):
        with pytest.raises(QueryError):
            small_engine.top_k([], k=5)
        with pytest.raises(QueryError):
            small_engine.top_k(["shop"], k=0)
        with pytest.raises(QueryError):
            small_engine.top_k(["shop"], k=5, eps=-1.0)


def test_pickled_ranking_round_trips(small_engine):
    """A complete ranking crosses the worker result queue pickled; it must
    come back equal, as ``SOIResult`` objects."""
    import pickle

    ranking, stats = small_engine.top_k_with_stats(["shop"], k=1)
    assert stats.complete and len(ranking) > 1
    restored = pickle.loads(pickle.dumps(ranking))
    assert restored == ranking
    assert all(type(item) is type(ranking[0]) for item in restored)
