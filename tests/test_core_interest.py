"""Tests for :mod:`repro.core.interest` (Definitions 1-3)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.interest import (
    buffer_area,
    materialise_slot_masses,
    segment_interest,
    segment_mass,
    segment_mass_bruteforce,
    street_interest_bruteforce,
    validate_query,
)
from repro.core.soi import SOIEngine
from repro.errors import QueryError

from tests.conftest import random_networks, random_pois


class TestBufferArea:
    def test_formula(self):
        # 2 * eps * len + pi * eps^2
        assert buffer_area(10.0, 0.5) == pytest.approx(
            2 * 0.5 * 10 + math.pi * 0.25)

    def test_zero_length_is_disk(self):
        assert buffer_area(0.0, 1.0) == pytest.approx(math.pi)

    @given(st.floats(min_value=0, max_value=100),
           st.floats(min_value=1e-6, max_value=10))
    def test_positive(self, length, eps):
        assert buffer_area(length, eps) > 0


class TestValidateQuery:
    def test_normalises_keywords(self):
        assert validate_query([" Shop", "FOOD"], 1, 0.1) == \
            frozenset({"shop", "food"})

    def test_empty_keywords_raise(self):
        with pytest.raises(QueryError):
            validate_query([], 1, 0.1)
        with pytest.raises(QueryError):
            validate_query(["  "], 1, 0.1)

    def test_bad_k(self):
        with pytest.raises(QueryError):
            validate_query(["shop"], 0, 0.1)

    def test_bad_eps(self):
        with pytest.raises(QueryError):
            validate_query(["shop"], 1, 0.0)
        with pytest.raises(QueryError):
            validate_query(["shop"], 1, -0.5)


class TestMass:
    def test_bruteforce_counts_within_eps(self, cross_network, cross_pois):
        segment = cross_network.segment(1)  # centre -> east along y=0
        mass = segment_mass_bruteforce(
            segment, cross_pois, frozenset({"shop"}), eps=0.1)
        # POIs 0 (0.1, 0.05) and 1 (0.2, -0.05) are within 0.1 of the
        # segment; 3 and 5 are far; 6 is far; 2/4/7 have no "shop".
        assert mass == 2.0

    def test_bruteforce_weighted(self, cross_network, cross_pois):
        from repro.data.poi import POI, POISet

        weighted = POISet([POI(0, 0.1, 0.05, frozenset({"shop"}), weight=2.5),
                           POI(1, 0.2, -0.05, frozenset({"shop"}),
                               weight=0.5)])
        segment = cross_network.segment(1)
        mass = segment_mass_bruteforce(
            segment, weighted, frozenset({"shop"}), eps=0.1, weighted=True)
        assert mass == pytest.approx(3.0)

    def test_indexed_matches_bruteforce_on_fixture(self, cross_network,
                                                   cross_pois):
        engine = SOIEngine(cross_network, cross_pois, cell_size=0.2)
        query = frozenset({"shop"})
        layout = engine.store_layout(0.15)
        slots = materialise_slot_masses(layout, engine.poi_index, query)
        for dense, segment in enumerate(layout.segments):
            indexed = segment_mass(layout, slots, dense)
            brute = segment_mass_bruteforce(segment, cross_pois, query, 0.15)
            assert indexed == brute

    @given(random_networks(), random_pois(max_size=25),
           st.sampled_from([0.0004, 0.001, 0.0025]))
    def test_indexed_matches_bruteforce_property(self, network, pois, eps):
        engine = SOIEngine(network, pois, cell_size=0.0015)
        layout = engine.store_layout(eps)
        for query in (frozenset({"shop"}), frozenset({"shop", "bar"})):
            slots = materialise_slot_masses(layout, engine.poi_index, query)
            for dense, segment in enumerate(layout.segments):
                indexed = segment_mass(layout, slots, dense)
                brute = segment_mass_bruteforce(segment, pois, query, eps)
                assert indexed == brute


class TestInterest:
    def test_segment_interest_is_density(self):
        assert segment_interest(10.0, 2.0, 0.5) == pytest.approx(
            10.0 / buffer_area(2.0, 0.5))

    def test_zero_mass_zero_interest(self):
        assert segment_interest(0.0, 5.0, 0.1) == 0.0

    def test_street_interest_is_max_over_segments(self, cross_network,
                                                  cross_pois):
        query = frozenset({"shop"})
        eps = 0.15
        street = cross_network.street_by_name("Main Street")
        per_segment = [
            segment_interest(
                segment_mass_bruteforce(seg, cross_pois, query, eps),
                seg.length, eps)
            for seg in cross_network.segments_of_street(street.id)]
        assert street_interest_bruteforce(
            cross_network, street.id, cross_pois, query, eps) == \
            pytest.approx(max(per_segment))


class TestSlotMasses:
    def test_irrelevant_cells_hold_zero(self, cross_network, cross_pois):
        engine = SOIEngine(cross_network, cross_pois, cell_size=0.2)
        layout = engine.store_layout(0.15)
        slots = materialise_slot_masses(layout, engine.poi_index,
                                        frozenset({"zoo"}))
        assert slots.num_relevant == 0
        assert slots.mass == [0.0] * layout.num_slots
