"""Round-trip tests for :mod:`repro.network.io`."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given

from repro.data.photo import Photo, PhotoSet
from repro.data.poi import POI, POISet
from repro.errors import NetworkError
from repro.network.io import (
    load_network_json,
    load_photos_json,
    load_pois_json,
    save_network_json,
    save_photos_json,
    save_pois_json,
)

from tests.conftest import random_networks


class TestNetworkRoundTrip:
    def test_cross_network(self, cross_network, tmp_path):
        path = tmp_path / "network.json"
        save_network_json(cross_network, path)
        loaded = load_network_json(path)
        assert set(loaded.vertices) == set(cross_network.vertices)
        assert set(loaded.segments) == set(cross_network.segments)
        for sid, seg in cross_network.segments.items():
            other = loaded.segment(sid)
            assert (other.u, other.v) == (seg.u, seg.v)
            assert other.street_id == seg.street_id
            assert other.length == pytest.approx(seg.length)
        for stid, street in cross_network.streets.items():
            assert loaded.street(stid).name == street.name
            assert loaded.street(stid).segment_ids == street.segment_ids

    @given(random_networks())
    def test_random_networks(self, tmp_path_factory, network):
        path = tmp_path_factory.mktemp("io") / "network.json"
        save_network_json(network, path)
        loaded = load_network_json(path)
        assert loaded.stats() == pytest.approx(network.stats())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_non_finite_vertex_is_a_network_error(self, cross_network,
                                                  tmp_path, bad, axis):
        """``json`` reads ``NaN`` and ``Infinity``; the loader must refuse
        them as the builder does, not hand the engine a vertex that
        silently drops its street from every answer."""
        path = tmp_path / "network.json"
        save_network_json(cross_network, path)
        doc = json.loads(path.read_text())
        doc["vertices"][0][axis] = bad
        path.write_text(json.dumps(doc))
        assert ("NaN" if math.isnan(bad) else "Infinity") in path.read_text()
        with pytest.raises(NetworkError, match="finite"):
            load_network_json(path)


class TestPOIRoundTrip:
    def test_preserves_fields(self, tmp_path):
        pois = POISet([
            POI(3, 1.5, 2.5, frozenset({"shop", "mall"}), weight=2.0),
            POI(7, -1.0, 0.0, frozenset(), weight=0.5),
        ])
        path = tmp_path / "pois.json"
        save_pois_json(pois, path)
        loaded = load_pois_json(path)
        assert len(loaded) == 2
        poi = loaded.by_id(3)
        assert (poi.x, poi.y) == (1.5, 2.5)
        assert poi.keywords == frozenset({"shop", "mall"})
        assert poi.weight == 2.0
        assert loaded.by_id(7).keywords == frozenset()


class TestPhotoRoundTrip:
    def test_preserves_fields(self, tmp_path):
        photos = PhotoSet([
            Photo(0, 0.1, 0.2, frozenset({"sunset", "river"})),
            Photo(9, 4.0, 4.0, frozenset()),
        ])
        path = tmp_path / "photos.json"
        save_photos_json(photos, path)
        loaded = load_photos_json(path)
        assert len(loaded) == 2
        assert loaded.by_id(0).keywords == frozenset({"sunset", "river"})
        assert (loaded.by_id(9).x, loaded.by_id(9).y) == (4.0, 4.0)
