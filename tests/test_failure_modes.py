"""Failure injection and degenerate-input behaviour across modules.

A production library must fail loudly on bad input and degrade gracefully
on empty-but-valid input; these tests pin both down for every layer.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro import (
    POI,
    POISet,
    Photo,
    PhotoSet,
    QueryError,
    SOIEngine,
    STRelDivDescriber,
    StreetProfile,
    build_street_profile,
)
from repro.core.soi_baseline import BaselineSOI
from repro.data.keywords import KeywordFrequencyVector
from repro.errors import DataError, GridIndexError, NetworkError
from repro.geometry.bbox import BBox
from repro.network.builder import RoadNetworkBuilder
from repro.perf.result_cache import ResultCache
from repro.serve.server import (
    DescribeRequest,
    SOIRequest,
    serve_request,
    serve_request_cached,
)

from tests.oracle import describe_ids


class TestEmptyData:
    def test_engine_with_no_pois(self, cross_network):
        engine = SOIEngine(cross_network, POISet([]), cell_size=0.2)
        assert engine.top_k(["shop"], k=3, eps=0.1) == []
        assert BaselineSOI(engine).top_k(["shop"], k=3, eps=0.1) == []

    def test_engine_with_keywordless_pois(self, cross_network):
        pois = POISet([POI(0, 0.1, 0.1), POI(1, 0.2, 0.2)])
        engine = SOIEngine(cross_network, pois, cell_size=0.2)
        assert engine.top_k(["shop"], k=3, eps=0.1) == []

    def test_profile_with_no_photos(self, cross_network):
        main = cross_network.street_by_name("Main Street")
        profile = build_street_profile(cross_network, main.id,
                                       PhotoSet([]), eps=0.1)
        assert len(profile) == 0
        assert STRelDivDescriber(profile).select(3) == []

    def test_profile_with_tagless_photos(self, cross_network):
        main = cross_network.street_by_name("Main Street")
        photos = PhotoSet([Photo(i, 0.1 * i, 0.0) for i in range(4)])
        profile = build_street_profile(cross_network, main.id, photos,
                                       eps=0.5)
        selected = STRelDivDescriber(profile).select(2)
        assert len(selected) == 2
        # tagless photos: textual relevance must be all-zero, not NaN
        assert profile.textual_rel.tolist() == [0.0] * len(profile)

    def test_single_photo_summary(self, cross_network):
        main = cross_network.street_by_name("Main Street")
        photos = PhotoSet([Photo(0, 0.1, 0.0, frozenset({"only"}))])
        profile = build_street_profile(cross_network, main.id, photos,
                                       eps=0.5)
        assert STRelDivDescriber(profile).select(5) == [0]


class TestParameterAbuse:
    def test_engine_rejects_bad_parameters_before_work(self, cross_network,
                                                       cross_pois):
        engine = SOIEngine(cross_network, cross_pois, cell_size=0.2)
        for bad in (dict(keywords=[], k=1, eps=0.1),
                    dict(keywords=["shop"], k=0, eps=0.1),
                    dict(keywords=["shop"], k=-3, eps=0.1),
                    dict(keywords=["shop"], k=1, eps=0.0)):
            with pytest.raises(QueryError):
                engine.top_k(**bad)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_is_a_query_error(self, cross_network, cross_pois,
                                             eps):
        engine = SOIEngine(cross_network, cross_pois, cell_size=0.2)
        with pytest.raises(QueryError):
            engine.top_k(["shop"], k=2, eps=eps)
        with pytest.raises(QueryError):
            BaselineSOI(engine).top_k(["shop"], k=2, eps=eps)
        with pytest.raises(QueryError):
            serve_request(engine, None, SOIRequest(("shop",), 2, eps))

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_poi_weight_is_a_data_error(self, weight):
        with pytest.raises(DataError):
            POI(0, 0.1, 0.1, frozenset({"shop"}), weight=weight)

    def test_describer_rejects_bad_parameters(self, cross_network):
        main = cross_network.street_by_name("Main Street")
        photos = PhotoSet([Photo(0, 0.1, 0.0, frozenset({"x"}))])
        profile = build_street_profile(cross_network, main.id, photos,
                                       eps=0.5)
        describer = STRelDivDescriber(profile)
        for k, lam, w in ((0, 0.5, 0.5), (1, -0.1, 0.5), (1, 0.5, 1.1)):
            with pytest.raises(QueryError):
                describer.select(k, lam, w)

    def test_profile_guards_normalisers(self):
        photos = PhotoSet([Photo(0, 0, 0, frozenset({"a"}))])
        phi = KeywordFrequencyVector({"a": 1.0})
        with pytest.raises(QueryError):
            StreetProfile(photos, phi, max_d=0.0,
                          extent=BBox(0, 0, 1, 1), rho=0.1)
        with pytest.raises(QueryError):
            StreetProfile(photos, phi, max_d=1.0,
                          extent=BBox(0, 0, 1, 1), rho=-1.0)


class TestDegenerateQueryArguments:
    """A ``k`` that is not an integer, keywords given as one string and a
    negative cell size are typed errors, on the engine and on both
    request kinds of the serve path, cached or not."""

    @staticmethod
    def _served(engine, photos, request):
        """Every serving entry a request can take."""
        yield lambda: serve_request(engine, photos, request)
        yield lambda: serve_request_cached(engine, photos, request,
                                           ResultCache())

    @pytest.mark.parametrize("k", [2.5, True, "2", None])
    def test_k_that_is_not_an_integer_is_a_query_error(
            self, cross_network, cross_pois, k):
        engine = SOIEngine(cross_network, cross_pois, cell_size=0.2)
        main = cross_network.street_by_name("Main Street")
        photos = PhotoSet([Photo(0, 0.1, 0.0, frozenset({"on"}))])
        with pytest.raises(QueryError, match="k must be an integer"):
            engine.top_k(["shop"], k)
        with pytest.raises(QueryError, match="k must be an integer"):
            BaselineSOI(engine).top_k(["shop"], k)
        for request in (SOIRequest(("shop",), k),
                        DescribeRequest(main.id, k, eps=0.1)):
            for serve in self._served(engine, photos, request):
                with pytest.raises(QueryError, match="k must be an integer"):
                    serve()
        # A NumPy integer is an integer.
        assert engine.top_k(["shop"], np.int64(2)) \
            == engine.top_k(["shop"], 2)
        for request in (SOIRequest(("shop",), np.int64(2)),
                        DescribeRequest(main.id, np.int64(2), eps=0.1)):
            for serve in self._served(engine, photos, request):
                assert serve() == serve_request(
                    engine, photos, replace(request, k=2))

    def test_keywords_as_one_string_are_a_query_error(self, cross_network,
                                                      cross_pois):
        engine = SOIEngine(cross_network, cross_pois, cell_size=0.2)
        assert engine.top_k(["shop"], 3, eps=0.15)
        with pytest.raises(QueryError, match="keywords"):
            engine.top_k("shop", 3, eps=0.15)
        with pytest.raises(QueryError, match="keywords"):
            BaselineSOI(engine).top_k("shop", 3, eps=0.15)
        for serve in self._served(engine, None,
                                  SOIRequest("shop", 3, eps=0.15)):
            with pytest.raises(QueryError, match="keywords"):
                serve()

    def test_negative_cell_size_is_a_grid_index_error(self, cross_network,
                                                      cross_pois):
        """Refused before the ``4 * cell_size`` extent margin would invert
        the grid extent."""
        for cell_size in (-1.0, -1e-9, 0.0):
            with pytest.raises(GridIndexError, match="cell_size"):
                SOIEngine(cross_network, cross_pois, cell_size=cell_size)
            engine = SOIEngine(cross_network, cross_pois, cell_size=0.2)
            with pytest.raises(GridIndexError, match="cell_size"):
                engine.rebuild_indexes(cell_size=cell_size)


class TestNonFiniteGeometry:
    """NaN and infinite coordinates stop where the data enters, with a
    typed error, before any index reads them in bulk."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertex_is_a_network_error(self, bad):
        builder = RoadNetworkBuilder()
        builder.add_vertex(0.0, 0.0)
        with pytest.raises(NetworkError):
            builder.add_vertex(bad, 0.001)
        with pytest.raises(NetworkError):
            builder.add_vertex(0.001, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_poi_or_photo_is_a_data_error(self, bad):
        with pytest.raises(DataError):
            POI(0, bad, 0.1, frozenset({"shop"}))
        with pytest.raises(DataError):
            POI(0, 0.1, bad, frozenset({"shop"}))
        with pytest.raises(DataError):
            Photo(0, bad, 0.1, frozenset({"x"}))
        with pytest.raises(DataError):
            Photo(0, 0.1, bad, frozenset({"x"}))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid_is_a_grid_index_error(self, cross_network,
                                                   cross_pois, bad):
        with pytest.raises(GridIndexError):
            SOIEngine(cross_network, cross_pois, cell_size=bad)
        # An infinite margin makes the grid extent infinite.
        with pytest.raises(GridIndexError):
            SOIEngine(cross_network, cross_pois, extent_margin=math.inf)


class TestDescribeBoundary:
    """A describe request's street, eps and rho are checked where its
    profile is built; a grid whose cells int64 keys cannot address is
    refused where it is built."""

    def _request(self, cross_network, **kwargs):
        main = cross_network.street_by_name("Main Street")
        photos = PhotoSet([Photo(0, 0.1, 0.0, frozenset({"on"})),
                           Photo(1, 0.2, 0.05, frozenset({"near"}))])
        engine = SOIEngine(cross_network, POISet([]), cell_size=0.2)
        kwargs.setdefault("street_id", main.id)
        return engine, photos, DescribeRequest(k=3, **kwargs)

    def test_unknown_street_is_a_query_error(self, cross_network):
        engine, photos, request = self._request(cross_network,
                                                street_id=999)
        with pytest.raises(QueryError, match="street"):
            serve_request(engine, photos, request)

    @pytest.mark.parametrize("eps", [-1.0, math.nan, math.inf, -math.inf])
    def test_bad_eps_is_a_query_error(self, cross_network, eps):
        engine, photos, request = self._request(cross_network, eps=eps)
        with pytest.raises(QueryError, match="eps"):
            serve_request(engine, photos, request)

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf])
    def test_bad_rho_is_a_query_error(self, cross_network, rho):
        engine, photos, request = self._request(cross_network, rho=rho)
        with pytest.raises(QueryError, match="rho"):
            serve_request(engine, photos, request)

    def test_zero_eps_keeps_only_photos_on_the_street(self, cross_network):
        engine, photos, request = self._request(cross_network, eps=0.0)
        assert serve_request(engine, photos, request) == [0]
        off_street = PhotoSet([photos[1]])
        assert serve_request(engine, off_street, request) == []

    @pytest.mark.parametrize("cell_size", [1e-20, 1e-12])
    def test_unkeyable_grid_is_a_grid_index_error(self, cross_network,
                                                  cross_pois, cell_size):
        with pytest.raises(GridIndexError, match="cells"):
            SOIEngine(cross_network, cross_pois, cell_size=cell_size)

    def test_unkeyable_photo_grid_is_a_grid_index_error(self, cross_network):
        """Algorithm 2's photo grid has cells of side rho / 2."""
        engine, photos, request = self._request(cross_network, rho=1e-20)
        profile = build_street_profile(engine.network, request.street_id,
                                       photos, request.eps, rho=request.rho)
        with pytest.raises(GridIndexError, match="cells"):
            STRelDivDescriber(profile)

    def test_served_describe_at_tiny_rho_matches_the_oracle(self,
                                                            cross_network):
        """Definition 4 is well defined at any positive rho, and serving
        builds no photo grid."""
        engine, photos, request = self._request(cross_network, rho=1e-20,
                                                eps=0.1)
        assert serve_request(engine, photos, request) == describe_ids(
            engine.network, photos, request.street_id, request.k,
            request.eps, request.lam, request.w, request.rho)


class TestOutOfExtentData:
    def test_pois_beyond_network_extent_still_counted(self, cross_network):
        """The engine extent covers the POI cloud, not just the network."""
        pois = POISet([
            POI(0, 0.1, 0.05, frozenset({"shop"})),
            POI(1, 30.0, 30.0, frozenset({"shop"})),  # far outside network
        ])
        engine = SOIEngine(cross_network, pois, cell_size=0.2)
        results = engine.top_k(["shop"], k=2, eps=0.15)
        # The near-corner POI is within eps of BOTH crossing streets (the
        # paper's non-exclusive assignment, Section 1); the distant POI
        # contributes to neither.
        assert {r.street_name for r in results} == \
            {"Main Street", "Cross Street"}
        assert all(r.interest > 0 for r in results)

    def test_poi_exactly_at_eps_boundary_counts(self, cross_network):
        pois = POISet([POI(0, 0.5, 0.15, frozenset({"shop"}))])
        engine = SOIEngine(cross_network, pois, cell_size=0.2)
        # dist to Main Street's y=0 span is exactly 0.15
        results = engine.top_k(["shop"], k=1, eps=0.15)
        assert len(results) == 1


class TestTieHandling:
    def test_identical_streets_tie_break_by_id(self):
        """Two geometrically identical parallel streets with identical POI
        support must rank by street id."""
        from repro.network.builder import RoadNetworkBuilder

        builder = RoadNetworkBuilder()
        a0 = builder.add_vertex(0.0, 0.0)
        a1 = builder.add_vertex(1.0, 0.0)
        b0 = builder.add_vertex(0.0, 10.0)
        b1 = builder.add_vertex(1.0, 10.0)
        builder.add_street("First", [a0, a1])
        builder.add_street("Second", [b0, b1])
        network = builder.build()
        pois = POISet([
            POI(0, 0.5, 0.01, frozenset({"shop"})),
            POI(1, 0.5, 10.01, frozenset({"shop"})),
        ])
        engine = SOIEngine(network, pois, cell_size=0.5)
        results = engine.top_k(["shop"], k=2, eps=0.1)
        assert [r.street_name for r in results] == ["First", "Second"]
        assert results[0].interest == pytest.approx(results[1].interest)
