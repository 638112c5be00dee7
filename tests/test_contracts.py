"""Runtime invariant contracts: unit, property and mutation tests.

Three layers:

* unit tests of the check helpers and the enable/disable switch;
* property tests running the full k-SOI and ST_Rel+Div pipelines over
  small random cities with contracts enabled — no violation may fire on
  correct code;
* mutation tests that deliberately corrupt a bound (via monkeypatching
  :class:`~repro.core.describe.bounds.BoundsComputer`, the describer's
  column pass and the SOI upper bound) and assert the contracts catch
  the corruption.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.analysis import contracts
from repro.analysis.contracts import (
    SOIContractMonitor,
    check_definition2,
    check_describe_selection,
    enable_contracts,
)
from repro.core.describe.bounds import BoundsComputer, RelevanceBounds
from repro.core.describe.greedy import GreedyDescriber
from repro.core.describe.profile import build_street_profile
from repro.core.describe import st_rel_div
from repro.core.describe.st_rel_div import STRelDivDescriber
from repro.core.soi import SOIEngine, _SOIRun
from repro.errors import ContractViolation

from tests.conftest import random_networks, random_photos, random_pois

EPS = 0.002


@pytest.fixture()
def checked():
    """Contracts on for the duration of one test."""
    previous = contracts.ENABLED
    enable_contracts()
    yield
    enable_contracts(previous)


@pytest.fixture()
def unchecked():
    """Contracts off for the duration of one test."""
    previous = contracts.ENABLED
    enable_contracts(False)
    yield
    enable_contracts(previous)


def profile_with_photos(city, min_photos=5):
    """First street profile of the city holding enough photos."""
    for street_id in city.network.streets:
        profile = build_street_profile(city.network, street_id, city.photos,
                                       eps=0.001)
        if len(profile) >= min_photos:
            return profile
    pytest.skip("no street with enough photos in the test city")


# -- switch semantics ---------------------------------------------------------

class TestSwitch:
    def test_default_tracks_environment(self):
        # The process-start default is decided by REPRO_CHECK; tests must
        # pass both with and without it (the suite runs under both).
        expected = contracts._env_enabled(os.environ.get("REPRO_CHECK"))
        assert contracts.ENABLED is expected

    def test_enable_disable_round_trip(self):
        previous = contracts.ENABLED
        try:
            repro.enable_contracts()
            assert repro.contracts_enabled()
            repro.enable_contracts(False)
            assert not repro.contracts_enabled()
        finally:
            enable_contracts(previous)

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("yes", True), ("on", True),
        ("", False), ("0", False), ("false", False), ("no", False),
        ("off", False), (None, False),
    ])
    def test_env_parsing(self, value, expected):
        assert contracts._env_enabled(value) is expected


# -- unit tests of the check helpers ------------------------------------------

class TestDefinition2:
    def test_valid_inputs_pass(self):
        check_definition2(mass=3.0, length=0.01, eps=0.0005)
        check_definition2(mass=0.0, length=0.0, eps=0.0005)

    @pytest.mark.parametrize("mass,length,eps", [
        (1.0, 0.01, 0.0),     # eps must be positive
        (1.0, 0.01, -1.0),
        (1.0, -0.01, 0.001),  # negative length
        (-1.0, 0.01, 0.001),  # negative mass
    ])
    def test_invalid_inputs_raise(self, mass, length, eps):
        with pytest.raises(ContractViolation):
            check_definition2(mass, length, eps)


class TestSOIMonitor:
    def test_monotone_sequence_passes(self):
        monitor = SOIContractMonitor()
        monitor.observe_threshold(0.0, 100.0)
        monitor.observe_threshold(5.0, 80.0)
        monitor.observe_threshold(5.0, 80.0)
        monitor.observe_threshold(9.0, 20.0)
        assert monitor.observations == 4

    def test_decreasing_lbk_raises(self):
        monitor = SOIContractMonitor()
        monitor.observe_threshold(5.0, 100.0)
        with pytest.raises(ContractViolation, match="LBk decreased"):
            monitor.observe_threshold(4.0, 90.0)

    def test_increasing_ub_raises(self):
        monitor = SOIContractMonitor()
        monitor.observe_threshold(0.0, 100.0)
        with pytest.raises(ContractViolation, match="UB increased"):
            monitor.observe_threshold(1.0, 101.0)

    def test_negative_lbk_raises(self):
        with pytest.raises(ContractViolation, match="negative"):
            SOIContractMonitor().observe_threshold(-0.1, 1.0)


def test_describe_selection_guard():
    check_describe_selection(0, 1)
    with pytest.raises(ContractViolation, match="eliminated all"):
        check_describe_selection(-1, 2)


# -- correct pipelines never violate ------------------------------------------

class TestPipelinesUnderContracts:
    def test_soi_results_identical_with_contracts(self, small_engine,
                                                  checked):
        enable_contracts(False)
        plain = small_engine.top_k(["shop", "food"], k=5, eps=EPS)
        enable_contracts()
        guarded = small_engine.top_k(["shop", "food"], k=5, eps=EPS)
        assert [(r.street_id, r.interest) for r in plain] == \
            [(r.street_id, r.interest) for r in guarded]

    def test_describe_identical_with_contracts(self, small_city, checked):
        profile = profile_with_photos(small_city)
        enable_contracts(False)
        plain = STRelDivDescriber(profile).select(3)
        enable_contracts()
        guarded = STRelDivDescriber(profile).select(3)
        assert plain == guarded
        # and still equal to the naive reference
        assert guarded == GreedyDescriber(profile).select(3)

    @settings(max_examples=20)
    @given(network=random_networks(), pois=random_pois(min_size=5),
           photos=random_photos(min_size=5),
           k=st.integers(min_value=1, max_value=4),
           lam=st.sampled_from([0.0, 0.5, 1.0]),
           w=st.sampled_from([0.0, 0.5, 1.0]))
    def test_random_cities_never_violate(self, network, pois, photos,
                                         k, lam, w):
        previous = contracts.ENABLED
        enable_contracts()
        try:
            engine = SOIEngine(network, pois)
            results = engine.top_k(["shop", "food", "bar"], k=k, eps=EPS)
            street_ids = list(network.streets)
            if results:
                street_ids = [results[0].street_id, *street_ids]
            for street_id in street_ids[:2]:
                profile = build_street_profile(network, street_id, photos,
                                               eps=EPS)
                if len(profile):
                    STRelDivDescriber(profile).select(k, lam, w)
                    GreedyDescriber(profile).select(k, lam, w)
        finally:
            enable_contracts(previous)


# -- mutation tests: corrupted bounds must be caught --------------------------

class TestMutations:
    def test_corrupted_relevance_bound_detected(self, small_city, checked,
                                                monkeypatch):
        profile = profile_with_photos(small_city)
        original = BoundsComputer.relevance_bounds

        def corrupted(self, cell):
            real = original(self, cell)
            # An inflated lower bound claims every photo in the cell is
            # more relevant than it can be (relevances are <= 1).
            return RelevanceBounds(
                spatial_lo=2.0, spatial_hi=2.0,
                textual_lo=real.textual_lo, textual_hi=real.textual_hi)

        monkeypatch.setattr(BoundsComputer, "relevance_bounds", corrupted)
        with pytest.raises(ContractViolation, match="spatial-rel"):
            STRelDivDescriber(profile).select(3)

    @pytest.mark.parametrize("column, name", [
        (1, "eq12-spatial-rel-hi"), (2, "eq13-textual-rel-lo")])
    def test_corrupted_cell_column_detected(self, small_city, checked,
                                            monkeypatch, column, name):
        """One entry of the describer's Equation 11-14 column pass off by
        an ulp: the describer's check against the per-cell reference
        fails as the describer is built."""
        profile = profile_with_photos(small_city)
        original = st_rel_div.relevance_bound_columns

        def corrupted(profile, index):
            columns = [values.copy() for values in original(profile, index)]
            last = len(columns[column]) - 1
            columns[column][last] = np.nextafter(columns[column][last], 9.0)
            return tuple(columns)

        monkeypatch.setattr(st_rel_div, "relevance_bound_columns",
                            corrupted)
        with pytest.raises(ContractViolation, match=name):
            STRelDivDescriber(profile)

    def test_corrupted_mmr_upper_bound_detected(self, small_city, checked,
                                                monkeypatch):
        profile = profile_with_photos(small_city)
        original = BoundsComputer.mmr_bounds

        def corrupted(self, cell, selected, lam, w, k):
            lo, hi = original(self, cell, selected, lam, w, k)
            # A shrunk upper bound silently prunes viable candidates.
            return lo, lo * 0.5

        monkeypatch.setattr(BoundsComputer, "mmr_bounds", corrupted)
        with pytest.raises(ContractViolation):
            STRelDivDescriber(profile).select(3)

    def test_corrupted_greedy_diversity_detected(self, small_city, checked,
                                                 monkeypatch):
        """The exhaustive greedy's pairwise diversities a hair too large:
        its value of the second pick no longer equals Equation 10."""
        profile = profile_with_photos(small_city)
        original = GreedyDescriber._pair_div_towards

        def corrupted(self, pick, w):
            return original(self, pick, w) + 1e-9

        monkeypatch.setattr(GreedyDescriber, "_pair_div_towards", corrupted)
        with pytest.raises(ContractViolation, match="eq10-greedy-pick"):
            GreedyDescriber(profile).select(3)

    def test_corrupted_soi_upper_bound_detected(self, small_engine, checked,
                                                monkeypatch):
        original = _SOIRun._compute_ub
        drift = {"calls": 0}

        def corrupted(self):
            # A growing UB breaks the Lemma 1 non-increase obligation.
            drift["calls"] += 1
            return original(self) + drift["calls"] * 1e15

        monkeypatch.setattr(_SOIRun, "_compute_ub", corrupted)
        with pytest.raises(ContractViolation, match="UB increased"):
            small_engine.top_k(["shop", "food"], k=3, eps=EPS)

    def test_mutations_invisible_when_disabled(self, small_city, unchecked,
                                               monkeypatch):
        # The same corruption goes unnoticed with contracts off: the
        # describer still returns (a possibly wrong) summary silently.
        profile = profile_with_photos(small_city)
        monkeypatch.setattr(
            BoundsComputer, "relevance_bounds",
            lambda self, cell: RelevanceBounds(2.0, 2.0, 2.0, 2.0))
        assert not contracts.ENABLED
        result = STRelDivDescriber(profile).select(3)
        assert len(result) == 3
