"""The flat segment-state store and the incremental top-k threshold.

Two contracts are exercised here, both exact:

* :class:`~repro.core.state_store.TopKThreshold` must return exactly the
  float ``heapq.nlargest(k, values)[-1]`` would, after any interleaving
  of per-key updates (values per key only ever improve — the SOI lower
  bounds are monotone).
* The filter and refinement work counters on the Figure 4 presets must
  equal golden rows recorded while a per-object scalar twin of the store
  path still existed and agreed with it counter for counter (answers are
  checked against the definitional oracle in
  ``test_oracle_differential``).

The whole module runs twice — plain and with the runtime invariant
contracts enabled (``REPRO_CHECK=1`` semantics) — via the autouse
fixture, mirroring ``test_perf_equivalence``.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import contracts
from repro.core.soi import AccessStrategy, SOIEngine
from repro.core.state_store import TopKThreshold

from tests.conftest import KEYWORD_POOL, random_networks, random_pois

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


# -- TopKThreshold -----------------------------------------------------------

def test_topk_threshold_none_below_k_keys():
    topk = TopKThreshold(3)
    assert topk.current() is None
    assert topk.update(1, 0.5)
    assert topk.update(2, 0.25)
    assert topk.current() is None  # two distinct keys < k
    assert topk.update(1, 0.75)    # improving key 1 adds no third key
    assert topk.current() is None
    assert topk.update(3, 0.1)
    assert topk.current() == 0.1


def test_topk_threshold_rejects_non_improving_updates():
    topk = TopKThreshold(1)
    assert topk.update(7, 1.0)
    assert not topk.update(7, 1.0)   # equal: not an improvement
    assert not topk.update(7, 0.5)   # smaller: ignored entirely
    assert topk.current() == 1.0
    assert len(topk) == 1


def test_topk_threshold_requires_positive_k():
    with pytest.raises(ValueError):
        TopKThreshold(0)


@given(k=st.integers(min_value=1, max_value=6),
       updates=st.lists(
           st.tuples(st.integers(min_value=0, max_value=12),
                     st.floats(min_value=0.0, max_value=100.0,
                               allow_nan=False)),
           max_size=120))
@settings(max_examples=120)
def test_topk_threshold_matches_nlargest_reference(k, updates):
    """After every update, ``current()`` == the nlargest rescan result."""
    topk = TopKThreshold(k)
    best: dict[int, float] = {}
    for key, value in updates:
        improved = value > best.get(key, 0.0)
        assert topk.update(key, value) is improved
        if improved:
            best[key] = value
        if len(best) < k:
            assert topk.current() is None
        else:
            assert topk.current() == heapq.nlargest(k, best.values())[-1]
    assert len(topk) == len(best)


def test_topk_threshold_compaction_stays_exact():
    """Many improvements to few keys force the lazy-heap compaction."""
    k = 2
    topk = TopKThreshold(k)
    best: dict[int, float] = {}
    for step in range(1, 800):
        key = step % 3
        value = float(step)
        topk.update(key, value)
        best[key] = max(best.get(key, 0.0), value)
        if len(best) >= k:
            assert topk.current() == heapq.nlargest(k, best.values())[-1]
    assert len(topk._heap) <= 4 * k + 64  # the compaction bound held


# -- session-pooled store reuse ----------------------------------------------

def test_warm_session_reuses_state_store(small_engine):
    engine = small_engine
    engine.invalidate_sessions()
    _res, cold = engine.top_k_with_stats(["food"], k=5, eps=EPS)
    _res, warm = engine.top_k_with_stats(["food"], k=5, eps=EPS)
    assert not cold.store_reused
    assert warm.store_reused
    session = engine.sessions.get(frozenset({"food"}))
    assert session is not None and session.store_reuses >= 1


# -- golden work counters ---------------------------------------------------

GOLDEN_FIELDS = (
    "cells_popped", "segments_popped", "segments_seen",
    "segments_finalized_in_filter", "cell_visits", "refinement_finalized",
    "refinement_pruned", "iterations", "termination_checks",
    "lbk_heap_updates", "kernel_calls", "refine_kernel_calls",
    "scalar_point_evals", "relevant_cache_hits", "relevant_cache_misses",
    "mass_cache_hits", "mass_cache_misses", "session_reused",
    "store_reused",
)
GOLDEN_SIGNATURES = (("shop",), ("food", "services"))

GOLDEN_COUNTERS = """
[vienna shop]
alternate       1 0 cold  64  68  73  68 2751 0 0 132 34 23 0 0  74  8  62   0  70 0 0
alternate       1 0 warm  64  68  73  68 2751 0 0 132 34 23 0 0   0  0   0  70   0 1 1
alternate       1 1 cold  64  68  73  68 2751 0 0 132 34 23 0 0  74  8  62   0  70 0 0
alternate       1 1 warm  64  68  73  68 2751 0 0 132 34 23 0 0   0  0   0  70   0 1 1
alternate      10 0 cold  64  68  73  68 2751 0 0 132 34 23 0 0  74  8  62   0  70 0 0
alternate      10 0 warm  64  68  73  68 2751 0 0 132 34 23 0 0   0  0   0  70   0 1 1
alternate      10 1 cold  64  68  73  68 2751 0 0 132 34 23 0 0  74  8  62   0  70 0 0
alternate      10 1 warm  64  68  73  68 2751 0 0 132 34 23 0 0   0  0   0  70   0 1 1
alternate      50 0 cold  64  68  73  68 2751 0 0 132 34 23 0 0  74  8  62   0  70 0 0
alternate      50 0 warm  64  68  73  68 2751 0 0 132 34 23 0 0   0  0   0  70   0 1 1
alternate      50 1 cold  64  68  73  68 2751 0 0 132 34 23 0 0  74  8  62   0  70 0 0
alternate      50 1 warm  64  68  73  68 2751 0 0 132 34 23 0 0   0  0   0  70   0 1 1
round_robin     1 0 cold  42  82  82  82 3582 0 0 124 32 19 0 0  74  8  62   0  70 0 0
round_robin     1 0 warm  42  82  82  82 3582 0 0 124 32 19 0 0   0  0   0  70   0 1 1
round_robin     1 1 cold  42  82  82  82 3582 0 0 124 32 19 0 0  74  8  62   0  70 0 0
round_robin     1 1 warm  42  82  82  82 3582 0 0 124 32 19 0 0   0  0   0  70   0 1 1
round_robin    10 0 cold  42  82  82  82 3582 0 0 124 32 19 0 0  74  8  62   0  70 0 0
round_robin    10 0 warm  42  82  82  82 3582 0 0 124 32 19 0 0   0  0   0  70   0 1 1
round_robin    10 1 cold  42  82  82  82 3582 0 0 124 32 19 0 0  74  8  62   0  70 0 0
round_robin    10 1 warm  42  82  82  82 3582 0 0 124 32 19 0 0   0  0   0  70   0 1 1
round_robin    50 0 cold  42  82  82  82 3582 0 0 124 32 19 0 0  74  8  62   0  70 0 0
round_robin    50 0 warm  42  82  82  82 3582 0 0 124 32 19 0 0   0  0   0  70   0 1 1
round_robin    50 1 cold  42  82  82  82 3582 0 0 124 32 19 0 0  74  8  62   0  70 0 0
round_robin    50 1 warm  42  82  82  82 3582 0 0 124 32 19 0 0   0  0   0  70   0 1 1
cells_first     1 0 cold  64   0  27   0   70 0 0  64 17 32 0 0  74  8  62   0  70 0 0
cells_first     1 0 warm  64   0  27   0   70 0 0  64 17 32 0 0   0  0   0  70   0 1 1
cells_first     1 1 cold  64   0  27   0   70 0 0  64 17 32 0 0  74  8  62   0  70 0 0
cells_first     1 1 warm  64   0  27   0   70 0 0  64 17 32 0 0   0  0   0  70   0 1 1
cells_first    10 0 cold  64   0  27   0   70 0 0  64 17 32 0 0  74  8  62   0  70 0 0
cells_first    10 0 warm  64   0  27   0   70 0 0  64 17 32 0 0   0  0   0  70   0 1 1
cells_first    10 1 cold  64   0  27   0   70 0 0  64 17 32 0 0  74  8  62   0  70 0 0
cells_first    10 1 warm  64   0  27   0   70 0 0  64 17 32 0 0   0  0   0  70   0 1 1
cells_first    50 0 cold  64   0  27   0   70 0 0  64 17 32 0 0  74  8  62   0  70 0 0
cells_first    50 0 warm  64   0  27   0   70 0 0  64 17 32 0 0   0  0   0  70   0 1 1
cells_first    50 1 cold  64   0  27   0   70 0 0  64 17 32 0 0  74  8  62   0  70 0 0
cells_first    50 1 warm  64   0  27   0   70 0 0  64 17 32 0 0   0  0   0  70   0 1 1
segments_first  1 0 cold   2  82  82  82 3582 0 0  84 22 13 0 0  74  8  62   0  70 0 0
segments_first  1 0 warm   2  82  82  82 3582 0 0  84 22 13 0 0   0  0   0  70   0 1 1
segments_first  1 1 cold   2  82  82  82 3582 0 0  84 22 13 0 0  74  8  62   0  70 0 0
segments_first  1 1 warm   2  82  82  82 3582 0 0  84 22 13 0 0   0  0   0  70   0 1 1
segments_first 10 0 cold   2  82  82  82 3582 0 0  84 22 13 0 0  74  8  62   0  70 0 0
segments_first 10 0 warm   2  82  82  82 3582 0 0  84 22 13 0 0   0  0   0  70   0 1 1
segments_first 10 1 cold   2  82  82  82 3582 0 0  84 22 13 0 0  74  8  62   0  70 0 0
segments_first 10 1 warm   2  82  82  82 3582 0 0  84 22 13 0 0   0  0   0  70   0 1 1
segments_first 50 0 cold   2  82  82  82 3582 0 0  84 22 13 0 0  74  8  62   0  70 0 0
segments_first 50 0 warm   2  82  82  82 3582 0 0  84 22 13 0 0   0  0   0  70   0 1 1
segments_first 50 1 cold   2  82  82  82 3582 0 0  84 22 13 0 0  74  8  62   0  70 0 0
segments_first 50 1 warm   2  82  82  82 3582 0 0  84 22 13 0 0   0  0   0  70   0 1 1
[vienna food+services]
alternate       1 0 cold  79  81  82  81 3522 0 1 160 41 33 0 0 249 37 155   0 192 0 0
alternate       1 0 warm  79  81  82  81 3522 0 1 160 41 33 0 0   0  0   0 192   0 1 1
alternate       1 1 cold  79  81  82  81 3522 0 1 160 41 33 0 0 249 37 155   0 192 0 0
alternate       1 1 warm  79  81  82  81 3522 0 1 160 41 33 0 0   0  0   0 192   0 1 1
alternate      10 0 cold  79  81  82  81 3582 1 0 160 41 33 0 0 261 39 165   0 204 0 0
alternate      10 0 warm  79  81  82  81 3582 1 0 160 41 33 0 0   0  0   0 204   0 1 1
alternate      10 1 cold  79  81  82  81 3582 1 0 160 41 33 0 0 261 39 165   0 204 0 0
alternate      10 1 warm  79  81  82  81 3582 1 0 160 41 33 0 0   0  0   0 204   0 1 1
alternate      50 0 cold  79  81  82  81 3582 1 0 160 41 33 0 0 261 39 165   0 204 0 0
alternate      50 0 warm  79  81  82  81 3582 1 0 160 41 33 0 0   0  0   0 204   0 1 1
alternate      50 1 cold  79  81  82  81 3582 1 0 160 41 33 0 0 261 39 165   0 204 0 0
alternate      50 1 warm  79  81  82  81 3582 1 0 160 41 33 0 0   0  0   0 204   0 1 1
round_robin     1 0 cold  42  82  82  82 3582 0 0 124 32 24 0 0 261 39 165   0 204 0 0
round_robin     1 0 warm  42  82  82  82 3582 0 0 124 32 24 0 0   0  0   0 204   0 1 1
round_robin     1 1 cold  42  82  82  82 3582 0 0 124 32 24 0 0 261 39 165   0 204 0 0
round_robin     1 1 warm  42  82  82  82 3582 0 0 124 32 24 0 0   0  0   0 204   0 1 1
round_robin    10 0 cold  42  82  82  82 3582 0 0 124 32 24 0 0 261 39 165   0 204 0 0
round_robin    10 0 warm  42  82  82  82 3582 0 0 124 32 24 0 0   0  0   0 204   0 1 1
round_robin    10 1 cold  42  82  82  82 3582 0 0 124 32 24 0 0 261 39 165   0 204 0 0
round_robin    10 1 warm  42  82  82  82 3582 0 0 124 32 24 0 0   0  0   0 204   0 1 1
round_robin    50 0 cold  42  82  82  82 3582 0 0 124 32 24 0 0 261 39 165   0 204 0 0
round_robin    50 0 warm  42  82  82  82 3582 0 0 124 32 24 0 0   0  0   0 204   0 1 1
round_robin    50 1 cold  42  82  82  82 3582 0 0 124 32 24 0 0 261 39 165   0 204 0 0
round_robin    50 1 warm  42  82  82  82 3582 0 0 124 32 24 0 0   0  0   0 204   0 1 1
cells_first     1 0 cold 166   2  41   2  345 0 0 168 43 73 0 0 261 39 165   0 204 0 0
cells_first     1 0 warm 166   2  41   2  345 0 0 168 43 73 0 0   0  0   0 204   0 1 1
cells_first     1 1 cold 166   2  41   2  345 0 0 168 43 73 0 0 261 39 165   0 204 0 0
cells_first     1 1 warm 166   2  41   2  345 0 0 168 43 73 0 0   0  0   0 204   0 1 1
cells_first    10 0 cold 166   2  41   2  345 0 0 168 43 73 0 0 261 39 165   0 204 0 0
cells_first    10 0 warm 166   2  41   2  345 0 0 168 43 73 0 0   0  0   0 204   0 1 1
cells_first    10 1 cold 166   2  41   2  345 0 0 168 43 73 0 0 261 39 165   0 204 0 0
cells_first    10 1 warm 166   2  41   2  345 0 0 168 43 73 0 0   0  0   0 204   0 1 1
cells_first    50 0 cold 166   2  41   2  345 0 0 168 43 73 0 0 261 39 165   0 204 0 0
cells_first    50 0 warm 166   2  41   2  345 0 0 168 43 73 0 0   0  0   0 204   0 1 1
cells_first    50 1 cold 166   2  41   2  345 0 0 168 43 73 0 0 261 39 165   0 204 0 0
cells_first    50 1 warm 166   2  41   2  345 0 0 168 43 73 0 0   0  0   0 204   0 1 1
segments_first  1 0 cold   2  82  82  82 3582 0 0  84 22 21 0 0 261 39 165   0 204 0 0
segments_first  1 0 warm   2  82  82  82 3582 0 0  84 22 21 0 0   0  0   0 204   0 1 1
segments_first  1 1 cold   2  82  82  82 3582 0 0  84 22 21 0 0 261 39 165   0 204 0 0
segments_first  1 1 warm   2  82  82  82 3582 0 0  84 22 21 0 0   0  0   0 204   0 1 1
segments_first 10 0 cold   2  82  82  82 3582 0 0  84 22 21 0 0 261 39 165   0 204 0 0
segments_first 10 0 warm   2  82  82  82 3582 0 0  84 22 21 0 0   0  0   0 204   0 1 1
segments_first 10 1 cold   2  82  82  82 3582 0 0  84 22 21 0 0 261 39 165   0 204 0 0
segments_first 10 1 warm   2  82  82  82 3582 0 0  84 22 21 0 0   0  0   0 204   0 1 1
segments_first 50 0 cold   2  82  82  82 3582 0 0  84 22 21 0 0 261 39 165   0 204 0 0
segments_first 50 0 warm   2  82  82  82 3582 0 0  84 22 21 0 0   0  0   0 204   0 1 1
segments_first 50 1 cold   2  82  82  82 3582 0 0  84 22 21 0 0 261 39 165   0 204 0 0
segments_first 50 1 warm   2  82  82  82 3582 0 0  84 22 21 0 0   0  0   0 204   0 1 1
[berlin shop]
alternate       1 0 cold  46  54  75  54 1412 0 0 100 26 27 0 0  77  7  46   0  53 0 0
alternate       1 0 warm  46  54  75  54 1412 0 0 100 26 27 0 0   0  0   0  53   0 1 1
alternate       1 1 cold  46  54  75  54 1412 0 0 100 26 27 0 0  77  7  46   0  53 0 0
alternate       1 1 warm  46  54  75  54 1412 0 0 100 26 27 0 0   0  0   0  53   0 1 1
alternate      10 0 cold  46  54  75  54 1412 0 0 100 26 27 0 0  77  7  46   0  53 0 0
alternate      10 0 warm  46  54  75  54 1412 0 0 100 26 27 0 0   0  0   0  53   0 1 1
alternate      10 1 cold  46  54  75  54 1412 0 0 100 26 27 0 0  77  7  46   0  53 0 0
alternate      10 1 warm  46  54  75  54 1412 0 0 100 26 27 0 0   0  0   0  53   0 1 1
alternate      50 0 cold  46  54  75  54 1412 0 0 100 26 27 0 0  77  7  46   0  53 0 0
alternate      50 0 warm  46  54  75  54 1412 0 0 100 26 27 0 0   0  0   0  53   0 1 1
alternate      50 1 cold  46  54  75  54 1412 0 0 100 26 27 0 0  77  7  46   0  53 0 0
alternate      50 1 warm  46  54  75  54 1412 0 0 100 26 27 0 0   0  0   0  53   0 1 1
round_robin     1 0 cold  46  90 104  90 3310 0 0 136 35 25 0 0  77  7  46   0  53 0 0
round_robin     1 0 warm  46  90 104  90 3310 0 0 136 35 25 0 0   0  0   0  53   0 1 1
round_robin     1 1 cold  46  90 104  90 3310 0 0 136 35 25 0 0  77  7  46   0  53 0 0
round_robin     1 1 warm  46  90 104  90 3310 0 0 136 35 25 0 0   0  0   0  53   0 1 1
round_robin    10 0 cold  46  90 104  90 3310 0 0 136 35 25 0 0  77  7  46   0  53 0 0
round_robin    10 0 warm  46  90 104  90 3310 0 0 136 35 25 0 0   0  0   0  53   0 1 1
round_robin    10 1 cold  46  90 104  90 3310 0 0 136 35 25 0 0  77  7  46   0  53 0 0
round_robin    10 1 warm  46  90 104  90 3310 0 0 136 35 25 0 0   0  0   0  53   0 1 1
round_robin    50 0 cold  46  90 104  90 3310 0 0 136 35 25 0 0  77  7  46   0  53 0 0
round_robin    50 0 warm  46  90 104  90 3310 0 0 136 35 25 0 0   0  0   0  53   0 1 1
round_robin    50 1 cold  46  90 104  90 3310 0 0 136 35 25 0 0  77  7  46   0  53 0 0
round_robin    50 1 warm  46  90 104  90 3310 0 0 136 35 25 0 0   0  0   0  53   0 1 1
cells_first     1 0 cold  46   2  26   2  173 0 0  48 13 27 0 0  77  7  46   0  53 0 0
cells_first     1 0 warm  46   2  26   2  173 0 0  48 13 27 0 0   0  0   0  53   0 1 1
cells_first     1 1 cold  46   2  26   2  173 0 0  48 13 27 0 0  77  7  46   0  53 0 0
cells_first     1 1 warm  46   2  26   2  173 0 0  48 13 27 0 0   0  0   0  53   0 1 1
cells_first    10 0 cold  46   2  26   2  173 0 0  48 13 27 0 0  77  7  46   0  53 0 0
cells_first    10 0 warm  46   2  26   2  173 0 0  48 13 27 0 0   0  0   0  53   0 1 1
cells_first    10 1 cold  46   2  26   2  173 0 0  48 13 27 0 0  77  7  46   0  53 0 0
cells_first    10 1 warm  46   2  26   2  173 0 0  48 13 27 0 0   0  0   0  53   0 1 1
cells_first    50 0 cold  46   2  26   2  173 0 0  48 13 27 0 0  77  7  46   0  53 0 0
cells_first    50 0 warm  46   2  26   2  173 0 0  48 13 27 0 0   0  0   0  53   0 1 1
cells_first    50 1 cold  46   2  26   2  173 0 0  48 13 27 0 0  77  7  46   0  53 0 0
cells_first    50 1 warm  46   2  26   2  173 0 0  48 13 27 0 0   0  0   0  53   0 1 1
segments_first  1 0 cold   1 203 203 203 7443 0 0 204 52 14 0 0  77  7  46   0  53 0 0
segments_first  1 0 warm   1 203 203 203 7443 0 0 204 52 14 0 0   0  0   0  53   0 1 1
segments_first  1 1 cold   1 203 203 203 7443 0 0 204 52 14 0 0  77  7  46   0  53 0 0
segments_first  1 1 warm   1 203 203 203 7443 0 0 204 52 14 0 0   0  0   0  53   0 1 1
segments_first 10 0 cold   1 203 203 203 7443 0 0 204 52 14 0 0  77  7  46   0  53 0 0
segments_first 10 0 warm   1 203 203 203 7443 0 0 204 52 14 0 0   0  0   0  53   0 1 1
segments_first 10 1 cold   1 203 203 203 7443 0 0 204 52 14 0 0  77  7  46   0  53 0 0
segments_first 10 1 warm   1 203 203 203 7443 0 0 204 52 14 0 0   0  0   0  53   0 1 1
segments_first 50 0 cold   1 203 203 203 7443 0 0 204 52 14 0 0  77  7  46   0  53 0 0
segments_first 50 0 warm   1 203 203 203 7443 0 0 204 52 14 0 0   0  0   0  53   0 1 1
segments_first 50 1 cold   1 203 203 203 7443 0 0 204 52 14 0 0  77  7  46   0  53 0 0
segments_first 50 1 warm   1 203 203 203 7443 0 0 204 52 14 0 0   0  0   0  53   0 1 1
[berlin food+services]
alternate       1 0 cold 164 172 182 172 5898 0 0 336 85 49 0 0 230 41 163   0 204 0 0
alternate       1 0 warm 164 172 182 172 5898 0 0 336 85 49 0 0   0  0   0 204   0 1 1
alternate       1 1 cold 164 172 182 172 5898 0 0 336 85 49 0 0 230 41 163   0 204 0 0
alternate       1 1 warm 164 172 182 172 5898 0 0 336 85 49 0 0   0  0   0 204   0 1 1
alternate      10 0 cold 164 172 182 172 5898 0 0 336 85 49 0 0 230 41 163   0 204 0 0
alternate      10 0 warm 164 172 182 172 5898 0 0 336 85 49 0 0   0  0   0 204   0 1 1
alternate      10 1 cold 164 172 182 172 5898 0 0 336 85 49 0 0 230 41 163   0 204 0 0
alternate      10 1 warm 164 172 182 172 5898 0 0 336 85 49 0 0   0  0   0 204   0 1 1
alternate      50 0 cold 164 172 182 172 5898 0 0 336 85 49 0 0 230 41 163   0 204 0 0
alternate      50 0 warm 164 172 182 172 5898 0 0 336 85 49 0 0   0  0   0 204   0 1 1
alternate      50 1 cold 164 172 182 172 5898 0 0 336 85 49 0 0 230 41 163   0 204 0 0
alternate      50 1 warm 164 172 182 172 5898 0 0 336 85 49 0 0   0  0   0 204   0 1 1
round_robin     1 0 cold 105 203 203 203 7443 0 0 308 78 38 0 0 230 41 163   0 204 0 0
round_robin     1 0 warm 105 203 203 203 7443 0 0 308 78 38 0 0   0  0   0 204   0 1 1
round_robin     1 1 cold 105 203 203 203 7443 0 0 308 78 38 0 0 230 41 163   0 204 0 0
round_robin     1 1 warm 105 203 203 203 7443 0 0 308 78 38 0 0   0  0   0 204   0 1 1
round_robin    10 0 cold 105 203 203 203 7443 0 0 308 78 38 0 0 230 41 163   0 204 0 0
round_robin    10 0 warm 105 203 203 203 7443 0 0 308 78 38 0 0   0  0   0 204   0 1 1
round_robin    10 1 cold 105 203 203 203 7443 0 0 308 78 38 0 0 230 41 163   0 204 0 0
round_robin    10 1 warm 105 203 203 203 7443 0 0 308 78 38 0 0   0  0   0 204   0 1 1
round_robin    50 0 cold 105 203 203 203 7443 0 0 308 78 38 0 0 230 41 163   0 204 0 0
round_robin    50 0 warm 105 203 203 203 7443 0 0 308 78 38 0 0   0  0   0 204   0 1 1
round_robin    50 1 cold 105 203 203 203 7443 0 0 308 78 38 0 0 230 41 163   0 204 0 0
round_robin    50 1 warm 105 203 203 203 7443 0 0 308 78 38 0 0   0  0   0 204   0 1 1
cells_first     1 0 cold 164   0  62   0  204 0 0 164 42 71 0 0 230 41 163   0 204 0 0
cells_first     1 0 warm 164   0  62   0  204 0 0 164 42 71 0 0   0  0   0 204   0 1 1
cells_first     1 1 cold 164   0  62   0  204 0 0 164 42 71 0 0 230 41 163   0 204 0 0
cells_first     1 1 warm 164   0  62   0  204 0 0 164 42 71 0 0   0  0   0 204   0 1 1
cells_first    10 0 cold 164   0  62   0  204 0 0 164 42 71 0 0 230 41 163   0 204 0 0
cells_first    10 0 warm 164   0  62   0  204 0 0 164 42 71 0 0   0  0   0 204   0 1 1
cells_first    10 1 cold 164   0  62   0  204 0 0 164 42 71 0 0 230 41 163   0 204 0 0
cells_first    10 1 warm 164   0  62   0  204 0 0 164 42 71 0 0   0  0   0 204   0 1 1
cells_first    50 0 cold 164   0  62   0  204 0 0 164 42 71 0 0 230 41 163   0 204 0 0
cells_first    50 0 warm 164   0  62   0  204 0 0 164 42 71 0 0   0  0   0 204   0 1 1
cells_first    50 1 cold 164   0  62   0  204 0 0 164 42 71 0 0 230 41 163   0 204 0 0
cells_first    50 1 warm 164   0  62   0  204 0 0 164 42 71 0 0   0  0   0 204   0 1 1
segments_first  1 0 cold   1 203 203 203 7443 0 0 204 52 28 0 0 230 41 163   0 204 0 0
segments_first  1 0 warm   1 203 203 203 7443 0 0 204 52 28 0 0   0  0   0 204   0 1 1
segments_first  1 1 cold   1 203 203 203 7443 0 0 204 52 28 0 0 230 41 163   0 204 0 0
segments_first  1 1 warm   1 203 203 203 7443 0 0 204 52 28 0 0   0  0   0 204   0 1 1
segments_first 10 0 cold   1 203 203 203 7443 0 0 204 52 28 0 0 230 41 163   0 204 0 0
segments_first 10 0 warm   1 203 203 203 7443 0 0 204 52 28 0 0   0  0   0 204   0 1 1
segments_first 10 1 cold   1 203 203 203 7443 0 0 204 52 28 0 0 230 41 163   0 204 0 0
segments_first 10 1 warm   1 203 203 203 7443 0 0 204 52 28 0 0   0  0   0 204   0 1 1
segments_first 50 0 cold   1 203 203 203 7443 0 0 204 52 28 0 0 230 41 163   0 204 0 0
segments_first 50 0 warm   1 203 203 203 7443 0 0 204 52 28 0 0   0  0   0 204   0 1 1
segments_first 50 1 cold   1 203 203 203 7443 0 0 204 52 28 0 0 230 41 163   0 204 0 0
segments_first 50 1 warm   1 203 203 203 7443 0 0 204 52 28 0 0   0  0   0 204   0 1 1
"""
"""``SOIStats.counters()`` in ``GOLDEN_FIELDS`` order, one row per
``strategy k weighted run`` under a ``[preset signature]`` header.

Recorded on the scale-0.1 vienna and berlin presets at ``EPS`` while the
per-object scalar filter path still existed: it produced these rows
counter for counter (bar ``store_reused``, which only the store sets), so
they carry that equivalence after its removal.  Each cold run starts
from an invalidated session pool; the warm run repeats the query."""


def _golden_rows() -> dict[tuple, dict[str, int]]:
    rows: dict[tuple, dict[str, int]] = {}
    group: tuple[str, ...] = ()
    for line in GOLDEN_COUNTERS.strip().splitlines():
        if line.startswith("["):
            group = tuple(line.strip("[]").split())
            continue
        strategy, k, weighted, run, *values = line.split()
        rows[group + (strategy, int(k), weighted == "1", run)] = dict(
            zip(GOLDEN_FIELDS, map(int, values), strict=True))
    return rows


def test_golden_work_counters():
    """Work counters on the Figure 4 presets equal the recorded rows."""
    from repro.datagen import build_preset

    expected = _golden_rows()
    got: dict[tuple, dict[str, int]] = {}
    for preset in ("vienna", "berlin"):
        city = build_preset(preset, 0.1)
        engine = SOIEngine(city.network, city.pois)
        for signature in GOLDEN_SIGNATURES:
            for strategy in AccessStrategy:
                for k in (1, 10, 50):
                    for weighted in (False, True):
                        engine.invalidate_sessions()
                        for run in ("cold", "warm"):
                            _res, stats = engine.top_k_with_stats(
                                signature, k=k, eps=EPS, strategy=strategy,
                                weighted=weighted)
                            key = (preset, "+".join(signature),
                                   strategy.value, k, weighted, run)
                            got[key] = stats.counters()
    assert got.keys() == expected.keys()
    mismatched = [key for key in expected if got[key] != expected[key]]
    assert not mismatched, (mismatched[0], got[mismatched[0]],
                            expected[mismatched[0]])


# -- counter budgets ---------------------------------------------------------

@given(network=random_networks(), pois=random_pois(min_size=1),
       keywords=queries, k=st.integers(min_value=1, max_value=5))
@settings(max_examples=25)
def test_termination_check_budget(network, pois, keywords, k):
    """The LBk >= UB check runs at most once per _CHECK_EVERY iterations
    (plus the final top-of-loop check), never per-iteration."""
    engine = SOIEngine(network, pois)
    _res, stats = engine.top_k_with_stats(keywords, k=k, eps=EPS)
    assert stats.termination_checks <= stats.iterations // 4 + 2


@given(network=random_networks(), pois=random_pois(min_size=1),
       keywords=queries, k=st.integers(min_value=1, max_value=5))
@settings(max_examples=25)
def test_lbk_heap_update_budget(network, pois, keywords, k):
    """Heap updates happen only on strict per-street improvements, which
    a cell visit or a finalisation can produce at most once each."""
    engine = SOIEngine(network, pois)
    _res, stats = engine.top_k_with_stats(keywords, k=k, eps=EPS)
    budget = stats.cell_visits + stats.segments_seen + stats.refinement_finalized
    assert stats.lbk_heap_updates <= budget
