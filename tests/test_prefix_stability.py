"""The prefix-stability property behind answering every k from one
cached ranking.

The result cache answers a k-request from a signature's cached complete
ranking by slicing, which is only sound if the payload kind is
*prefix-stable*: k-SOI ranks ``sorted(..., key=(-interest, street_id))``
then slices, so
``top_k(k′) == top_k(k)[:k′]`` under the deterministic tie-break.  These
tests state that property directly — over Hypothesis-generated inputs,
over the Figure 4 preset city, plain and with runtime contracts enabled
(``REPRO_CHECK=1`` semantics).

Describe selections are **not** prefix-stable: Equation 10 normalises
the diversity term by ``λ / (k - 1)``, so the requested summary size
changes every marginal value and the greedy argmax can flip between
``k`` and ``k′`` runs.  ``test_describe_selection_is_not_prefix_stable``
pins a concrete counterexample (found by Hypothesis against an earlier
draft that assumed the property) — it is why
:func:`repro.perf.result_cache.request_cache_key` keeps ``k`` in
describe keys and restricts their reuse to exact-signature hits.  What
*does* hold for describers, and what exact-k caching relies on, is
determinism: the same profile and parameters always select the same
photos, in the same order, for Greedy and ST_Rel+Div alike.

The runtime side of the same guarantee (a poisoned cache entry must not
be served silently under contracts) lives in ``test_result_cache.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import contracts
from repro.core.describe.greedy import GreedyDescriber
from repro.core.describe.profile import StreetProfile, build_street_profile
from repro.core.describe.st_rel_div import STRelDivDescriber
from repro.core.soi import AccessStrategy, SOIEngine
from repro.data.keywords import KeywordFrequencyVector
from repro.geometry.bbox import BBox

from tests.conftest import random_networks, random_photos, random_pois


class check_mode:
    """Toggle runtime contracts for one example (``REPRO_CHECK`` semantics)."""

    def __init__(self, on: bool) -> None:
        self.on = on

    def __enter__(self) -> None:
        self.previous = contracts.ENABLED
        contracts.enable_contracts(self.on)

    def __exit__(self, *exc) -> None:
        contracts.enable_contracts(self.previous)


# -- k-SOI --------------------------------------------------------------------

@given(network=random_networks(),
       pois=random_pois(min_size=1, max_size=25),
       k=st.integers(min_value=2, max_value=12),
       strategy=st.sampled_from(list(AccessStrategy)),
       keywords=st.lists(st.sampled_from(["shop", "food", "bar", "art"]),
                         min_size=1, max_size=3, unique=True))
@settings(max_examples=40, deadline=None)
def test_soi_ranking_is_prefix_stable(network, pois, k, strategy, keywords):
    engine = SOIEngine(network, pois, cell_size=0.0015)
    full = engine.top_k(keywords, k=k, eps=0.001, strategy=strategy)
    for k_prime in range(1, k + 1):
        assert engine.top_k(keywords, k=k_prime, eps=0.001,
                            strategy=strategy) == full[:k_prime]


@pytest.fixture(scope="module")
def fig4_engine():
    """The scaled-down Figure 4 city preset (built once per module)."""
    from repro.datagen import build_preset

    city = build_preset("vienna", 0.1)
    return city, SOIEngine(city.network, city.pois)


@pytest.mark.parametrize("check", [False, True], ids=["plain", "contracts"])
@given(k=st.integers(min_value=2, max_value=100),
       num_keywords=st.integers(min_value=1, max_value=4),
       weighted=st.booleans(),
       data=st.data())
@settings(max_examples=25, deadline=None)
def test_soi_prefix_stable_on_fig4_preset(fig4_engine, check, k,
                                          num_keywords, weighted, data):
    from repro.eval.experiments import PAPER_QUERY_KEYWORDS

    _, engine = fig4_engine
    keywords = PAPER_QUERY_KEYWORDS[:num_keywords]
    k_prime = data.draw(st.integers(min_value=1, max_value=k - 1))
    with check_mode(check):
        full = engine.top_k(keywords, k=k, eps=0.0005, weighted=weighted)
        assert engine.top_k(keywords, k=k_prime, eps=0.0005,
                            weighted=weighted) == full[:k_prime]


# -- describe -----------------------------------------------------------------

def photo_profile(photos, rho: float = 0.004) -> StreetProfile:
    extent = BBox(-0.005, -0.005, 0.025, 0.025)
    phi = KeywordFrequencyVector.from_keyword_sets(
        p.keywords for p in photos)
    return StreetProfile(photos=photos, phi=phi, max_d=extent.diagonal,
                         extent=extent, rho=rho)


def test_describe_selection_is_not_prefix_stable():
    """The counterexample behind exact-k describe caching.

    Photo 0 is relevant-but-near, photos 2/3 are textual twins far
    apart.  At k=3 relevance wins round 3 (diversity is scaled by
    ``λ/2``); at k=4 the scale drops to ``λ/3``... the argmax of round 3
    flips, so ``select(3) != select(4)[:3]``.  Slicing a cached k=4
    describe payload for a k=3 request would therefore serve a wrong
    (non-bit-identical) summary — which is why describe cache keys carry
    ``k`` and are only reused on exact hits.
    """
    from repro.data.photo import Photo, PhotoSet

    photos = PhotoSet([
        Photo(0, 0.012517660204964776, 0.008459959023698522, frozenset()),
        Photo(1, 0.00850151342202751, 0.001262539107874532,
              frozenset({"food"})),
        Photo(2, 0.0008917558544087002, 0.0018597921558449262,
              frozenset({"bank", "club", "park", "shop"})),
        Photo(3, 0.0, 0.019384269015494535,
              frozenset({"bank", "club", "park", "shop"})),
        Photo(4, 0.00850151342202751, 0.001262539107874532,
              frozenset({"food"})),
        Photo(5, 0.0, 0.0, frozenset()),
    ])
    profile = photo_profile(photos)
    describer = GreedyDescriber(profile)
    assert describer.select(3, 0.7, 0.0) == [2, 1, 0]
    assert describer.select(4, 0.7, 0.0) == [2, 1, 3, 0]
    # Same counterexample through the bounded method: both describers
    # stay bit-identical to each other at every fixed k.
    fast = STRelDivDescriber(profile)
    assert fast.select(3, 0.7, 0.0) == [2, 1, 0]
    assert fast.select(4, 0.7, 0.0) == [2, 1, 3, 0]


@given(photos=random_photos(min_size=2, max_size=30),
       k=st.integers(min_value=1, max_value=10),
       lam=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       w=st.sampled_from([0.0, 0.5, 1.0]))
@settings(max_examples=40, deadline=None)
def test_describe_selection_is_deterministic_at_fixed_k(photos, k, lam, w):
    """Exact-k reuse is sound: repeated selection is bit-identical."""
    profile = photo_profile(photos)
    for describer in (GreedyDescriber(profile), STRelDivDescriber(profile)):
        first = describer.select(k, lam, w)
        assert describer.select(k, lam, w) == first


@pytest.mark.parametrize("check", [False, True], ids=["plain", "contracts"])
@given(k=st.integers(min_value=1, max_value=20),
       lam=st.sampled_from([0.2, 0.5, 0.8]),
       w=st.sampled_from([0.3, 0.5, 0.7]))
@settings(max_examples=15, deadline=None)
def test_describe_deterministic_on_fig6_preset(fig4_engine, check, k, lam, w):
    """Figure 6's setting: repeat MMR selections over a preset street."""
    city, engine = fig4_engine
    top = engine.top_k(["shop"], k=1, eps=0.0005)[0]
    profile = build_street_profile(city.network, top.street_id,
                                   city.photos, eps=0.0005)
    with check_mode(check):
        greedy = GreedyDescriber(profile).select(k, lam, w)
        assert GreedyDescriber(profile).select(k, lam, w) == greedy
        assert STRelDivDescriber(profile).select(k, lam, w) == greedy
