"""Bit-identity of the performance layer against the plain paths.

The optimised paths — the one-pass slot-mass materialisation, the
session-held slot masses, session-served SOI queries and the incremental
greedy MMR evaluator — must produce results *bitwise* equal to the
oracle's per-slot masses, uncached runs and the oracle's from-scratch
greedy (``tests/oracle.py``).  Every
property here asserts exact ``==`` on floats, over random Hypothesis
cities, and the whole module runs twice: once plain and once with the
runtime invariant contracts enabled (``REPRO_CHECK=1`` semantics).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import contracts
from repro.core.describe.greedy import GreedyDescriber
from repro.core.describe.measures import MMREvaluator, mmr_value
from repro.core.describe.profile import StreetProfile
from repro.core.describe.st_rel_div import STRelDivDescriber
from repro.core.interest import materialise_slot_masses, segment_mass
from repro.core.soi import SOIEngine
from repro.core.soi_baseline import BaselineSOI
from repro.data.keywords import KeywordFrequencyVector
from repro.geometry.bbox import BBox

from tests.conftest import (
    KEYWORD_POOL,
    random_networks,
    random_photos,
    random_pois,
)
from tests.oracle import greedy_mmr, slot_mass

EPS = 0.0005


@pytest.fixture(params=[False, True], ids=["plain", "contracts"],
                autouse=True)
def _maybe_contracts(request):
    """Run every test in this module with contracts off and on."""
    previous = contracts.ENABLED
    if request.param:
        contracts.enable_contracts()
    try:
        yield
    finally:
        contracts.enable_contracts(previous)


queries = st.sets(st.sampled_from(KEYWORD_POOL), min_size=1, max_size=3)


# -- one-pass slot masses ------------------------------------------------

@given(network=random_networks(), pois=random_pois(min_size=1),
       keywords=queries)
def test_batched_mass_equals_per_cell_sum(network, pois, keywords):
    """A segment's mass settled from the pass equals the oracle's
    per-slot masses summed in ``cells_of_segment`` order."""
    engine = SOIEngine(network, pois)
    query = frozenset(keywords)
    layout = engine.store_layout(EPS)
    grid = engine.poi_index.grid
    for weighted in (False, True):
        slots = materialise_slot_masses(layout, engine.poi_index, query,
                                        weighted)
        for dense, segment in enumerate(layout.segments):
            per_cell = 0.0
            for cell in engine.cell_maps.cells_of_segment(segment.id, EPS):
                per_cell += slot_mass(segment, cell, grid, pois, query, EPS,
                                      weighted)
            assert segment_mass(layout, slots, dense) == per_cell


@given(network=random_networks(), pois=random_pois(min_size=1),
       keywords=queries)
def test_batched_mass_cache_stores_exact_values(network, pois, keywords):
    """The session keeps the first pass's slot masses, and every one
    equals a fresh sessionless pass and the oracle's per-slot mass."""
    engine = SOIEngine(network, pois)
    query = frozenset(keywords)
    layout = engine.store_layout(EPS)
    session = engine.sessions.get(query)
    grid = engine.poi_index.grid
    for weighted in (False, True):
        kept, reused = session.store_mass_slots(layout, weighted)
        assert not reused
        again, reused = session.store_mass_slots(layout, weighted)
        assert reused and again is kept
        fresh = materialise_slot_masses(layout, engine.poi_index, query,
                                        weighted)
        assert kept.mass == fresh.mass
        for slot, cell in enumerate(layout.slot_cell.tolist()):
            dense = int(layout.slot_seg[slot])
            assert kept.mass[slot] == slot_mass(
                layout.segments[dense], layout.cells[cell], grid, pois,
                query, EPS, weighted)


# -- session-served SOI ------------------------------------------------------

@given(network=random_networks(), pois=random_pois(min_size=1),
       keywords=queries, k=st.integers(min_value=1, max_value=5))
def test_session_soi_identical_to_uncached(network, pois, keywords, k):
    engine = SOIEngine(network, pois)
    baseline = SOIEngine(network, pois).top_k(keywords, k=k, eps=EPS)
    cold = engine.top_k(keywords, k=k, eps=EPS)
    warm = engine.top_k(keywords, k=k, eps=EPS)  # slot masses held
    assert cold == baseline
    assert warm == baseline


@given(network=random_networks(), pois=random_pois(min_size=1),
       keywords=queries)
def test_session_sweep_identical_to_uncached(network, pois, keywords):
    """A k-sweep on one warm session matches per-query fresh runs."""
    engine = SOIEngine(network, pois)
    reference = SOIEngine(network, pois)
    for k in (1, 3, 5):
        reference.invalidate_sessions()
        fresh = reference.top_k(keywords, k=k, eps=EPS)
        assert engine.top_k(keywords, k=k, eps=EPS) == fresh


@given(network=random_networks(), pois=random_pois(min_size=1),
       keywords=queries)
def test_session_baseline_identical_to_uncached(network, pois, keywords):
    baseline = BaselineSOI(SOIEngine(network, pois))
    fresh = BaselineSOI(SOIEngine(network, pois)).all_segment_interests(
        keywords, eps=EPS)
    assert baseline.all_segment_interests(keywords, eps=EPS) == fresh
    # Warm rerun (slot masses held by the session) must also be exact.
    assert baseline.all_segment_interests(keywords, eps=EPS) == fresh


# -- incremental greedy MMR --------------------------------------------------

def _profile_of(photos) -> StreetProfile:
    extent = BBox(-0.001, -0.001, 0.021, 0.021)
    freq: dict[str, float] = {}
    for photo in photos:
        for keyword in photo.keywords:
            freq[keyword] = freq.get(keyword, 0.0) + 1.0
    return StreetProfile(photos=photos, phi=KeywordFrequencyVector(freq),
                         max_d=extent.diagonal, extent=extent)


@given(photos=random_photos(min_size=1),
       k=st.integers(min_value=1, max_value=6),
       lam=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
       w=st.sampled_from([0.0, 0.5, 1.0]))
def test_incremental_greedy_matches_naive(photos, k, lam, w):
    profile = _profile_of(photos)
    assert GreedyDescriber(profile).select(k, lam, w) == \
        greedy_mmr(profile, k, lam, w)


@given(photos=random_photos(min_size=1),
       pos_pairs=st.data())
def test_evaluator_matches_mmr_value_bitwise(photos, pos_pairs):
    profile = _profile_of(photos)
    n = len(profile)
    k, lam, w = 4, 0.5, 0.5
    evaluator = MMREvaluator(profile, lam, w, k)
    selected: list[int] = []
    order = pos_pairs.draw(st.permutations(range(n)))
    for pos in order[: min(3, n)]:
        for candidate in range(n):
            assert evaluator.value(candidate) == mmr_value(
                profile, candidate, selected, lam, w, k)
        selected.append(pos)
        evaluator.extend_selection(pos)


@settings(max_examples=20)
@given(photos=random_photos(min_size=2, max_size=20),
       k=st.integers(min_value=2, max_value=5))
def test_st_rel_div_still_matches_greedy(photos, k):
    """ST_Rel+Div and the exhaustive greedy pick identical summaries."""
    profile = _profile_of(photos)
    greedy = GreedyDescriber(profile).select(k)
    st_sel = STRelDivDescriber(profile).select(k)
    assert st_sel == greedy


@given(photos=random_photos(min_size=2, max_size=15))
def test_interned_tag_sets_preserve_jaccard(photos):
    from repro.core.describe.measures import jaccard_distance, textual_div

    profile = _profile_of(photos)
    n = len(profile)
    for a in range(n):
        for b in range(n):
            assert textual_div(profile, a, b) == jaccard_distance(
                profile.keyword_sets[a], profile.keyword_sets[b])
