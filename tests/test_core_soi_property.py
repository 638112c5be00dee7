"""Property-based equivalence: SOI == exhaustive evaluation.

Hypothesis generates small road networks and POI sets; for every query the
SOI algorithm must return the same interest values as the brute-force
reference (Definitions 1-3 computed with full scans), with streets
matching above the k-th-value tie boundary.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.soi import AccessStrategy, SOIEngine
from repro.core.soi_baseline import BaselineSOI

from tests.conftest import random_networks, random_pois
from tests.oracle import assert_topk_equivalent, ranking, soi_topk


@given(network=random_networks(),
       pois=random_pois(min_size=1, max_size=25),
       k=st.integers(min_value=1, max_value=6),
       eps=st.sampled_from([0.0004, 0.001, 0.002]),
       keywords=st.lists(st.sampled_from(["shop", "food", "bar", "art"]),
                         min_size=1, max_size=3, unique=True))
@settings(max_examples=60)
def test_soi_equals_bruteforce(network, pois, k, eps, keywords):
    engine = SOIEngine(network, pois, cell_size=0.0015)
    results = engine.top_k(keywords, k=k, eps=eps)
    expected = soi_topk(network, pois, keywords, k, eps)
    got = [r.interest for r in results]
    want = [interest for interest, _sid in expected]
    assert got == pytest.approx(want)
    if want:
        boundary = want[-1]
        got_ids = {r.street_id for r in results
                   if r.interest > boundary + 1e-9}
        want_ids = {sid for interest, sid in expected
                    if interest > boundary + 1e-9}
        assert got_ids == want_ids


@given(network=random_networks(),
       pois=random_pois(min_size=1, max_size=25),
       strategy=st.sampled_from(list(AccessStrategy)),
       prune=st.booleans())
@settings(max_examples=40)
def test_soi_options_agree_with_baseline(network, pois, strategy, prune):
    engine = SOIEngine(network, pois, cell_size=0.0015)
    baseline = BaselineSOI(engine).top_k(["shop", "food"], k=4, eps=0.001)
    results = engine.top_k(["shop", "food"], k=4, eps=0.001,
                           strategy=strategy, prune_refinement=prune)
    assert_topk_equivalent(ranking(results), ranking(baseline))


@pytest.fixture(scope="module", params=["vienna", "berlin"])
def preset_engine(request):
    """A scaled-down Figure 4 city preset (built once per module)."""
    from repro.datagen import build_preset

    city = build_preset(request.param, 0.1)
    return SOIEngine(city.network, city.pois)


@pytest.mark.parametrize("check", [False, True], ids=["plain", "contracts"])
@given(k=st.integers(min_value=1, max_value=20),
       num_keywords=st.integers(min_value=1, max_value=4),
       weighted=st.booleans())
@settings(max_examples=25, deadline=None)
def test_access_strategies_agree_on_fig4_presets(preset_engine, check, k,
                                                 num_keywords, weighted):
    """The paper: correctness "is not affected by the access strategy".

    Every variant must return the *identical* result list (streets,
    interests bitwise, best segments) on the Figure 4 query presets —
    plain and with runtime contracts on (``REPRO_CHECK=1`` semantics).
    """
    from repro.analysis import contracts
    from repro.eval.experiments import PAPER_QUERY_KEYWORDS

    keywords = PAPER_QUERY_KEYWORDS[:num_keywords]
    previous = contracts.ENABLED
    contracts.enable_contracts(check)
    try:
        reference = preset_engine.top_k(
            keywords, k=k, eps=0.0005, weighted=weighted,
            strategy=AccessStrategy.ALTERNATE)
        for strategy in AccessStrategy:
            results = preset_engine.top_k(
                keywords, k=k, eps=0.0005, weighted=weighted,
                strategy=strategy)
            assert results == reference, strategy
    finally:
        contracts.enable_contracts(previous)


@given(network=random_networks(), pois=random_pois(max_size=20))
@settings(max_examples=30)
def test_weighted_soi_equals_weighted_bruteforce(network, pois):
    # Re-weight POIs deterministically by position so weights vary.
    from repro.data.poi import POI, POISet

    weighted = POISet([
        POI(p.id, p.x, p.y, p.keywords, weight=1.0 + (i % 3))
        for i, p in enumerate(pois)])
    engine = SOIEngine(network, weighted, cell_size=0.0015)
    results = engine.top_k(["shop"], k=3, eps=0.001, weighted=True)
    expected = soi_topk(network, weighted, ["shop"], 3, 0.001,
                        weighted=True)
    assert [r.interest for r in results] == pytest.approx(
        [interest for interest, _sid in expected])
