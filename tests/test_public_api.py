"""The public API surface: everything in ``repro.__all__`` importable and
the README quickstart flow working end to end."""

from __future__ import annotations

import pytest

import repro


class TestSurface:
    def test_all_names_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_error_hierarchy(self):
        assert issubclass(repro.NetworkError, repro.ReproError)
        assert issubclass(repro.DataError, repro.ReproError)
        assert issubclass(repro.QueryError, repro.ReproError)
        assert issubclass(repro.GridIndexError, repro.ReproError)
        assert issubclass(repro.ContractViolation, repro.ReproError)


class TestQuickstartFlow:
    def test_end_to_end(self, small_city):
        engine = repro.SOIEngine(small_city.network, small_city.pois)
        results = engine.top_k(["shop"], k=3)
        assert results
        profile = repro.build_street_profile(
            small_city.network, results[0].street_id, small_city.photos,
            eps=repro.DEFAULT_EPS)
        summary = repro.STRelDivDescriber(profile).select(k=3)
        assert len(summary) == min(3, len(profile))
        # baseline agreement end to end
        assert repro.GreedyDescriber(profile).select(k=3) == summary

    def test_soi_query_record(self):
        query = repro.SOIQuery(frozenset({"Shop"}), k=5, eps=0.0005)
        assert query.keywords == frozenset({"shop"})
        with pytest.raises(repro.QueryError):
            repro.SOIQuery(frozenset(), k=5, eps=0.0005)
