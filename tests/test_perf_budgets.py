"""Counter-based performance regression tests.

Wall-clock assertions are flaky on shared CI machines; these tests pin the
*work* the optimised paths are allowed to do instead — kernel invocations,
cache traffic and pairwise-diversity evaluations — which is deterministic
for a fixed city and query.  A regression that reintroduces per-slot
kernel dispatch or from-scratch MMR recomputation trips these immediately,
no timer involved.
"""

from __future__ import annotations

import pytest

from repro.core.describe.greedy import GreedyDescriber
from repro.core.describe.profile import build_street_profile
from repro.core.describe.st_rel_div import STRelDivDescriber
from repro.core.results import SOIStats
from repro.core.soi import SOIEngine
from repro.core.soi_baseline import BaselineSOI

KEYWORDS = ["shop"]
K = 10


@pytest.fixture(scope="module")
def engine(small_city):
    return SOIEngine(small_city.network, small_city.pois)


@pytest.fixture(scope="module")
def profile(small_city, engine):
    results = engine.top_k(KEYWORDS, k=1)
    profile = build_street_profile(small_city.network,
                                   results[0].street_id, small_city.photos,
                                   eps=0.0005)
    assert len(profile) >= 10, "fixture city too sparse for describe tests"
    return profile


class TestSOIBudgets:
    def test_refinement_batches_one_kernel_per_segment(self, engine):
        engine.invalidate_sessions()
        _res, stats = engine.top_k_with_stats(KEYWORDS, k=K)
        # One distance kernel per run, in the build phase: the pass
        # materialises every slot mass, so filter and refinement only
        # read them.
        assert stats.kernel_calls == 1

    def test_baseline_batches_one_kernel_per_segment(self, engine, small_city):
        engine.invalidate_sessions()
        stats = SOIStats()
        baseline = BaselineSOI(engine)
        baseline.all_segment_interests(KEYWORDS, stats=stats)
        assert stats.kernel_calls == 1
        again = SOIStats()
        baseline.all_segment_interests(KEYWORDS, stats=again)
        assert again.kernel_calls == 0
        assert again.mass_cache_hits == stats.mass_cache_misses > 0

    def test_warm_rerun_serves_everything_from_cache(self, engine):
        engine.invalidate_sessions()
        engine.top_k(KEYWORDS, k=K)
        _res, warm = engine.top_k_with_stats(KEYWORDS, k=K)
        assert warm.session_reused
        assert warm.kernel_calls == 0
        assert warm.mass_cache_hits > 0
        assert warm.mass_cache_misses == 0

    def test_cold_run_counts_cache_misses_not_hits_only(self, engine):
        engine.invalidate_sessions()
        _res, cold = engine.top_k_with_stats(KEYWORDS, k=K)
        assert cold.mass_cache_misses > 0
        assert cold.mass_cache_hits == 0

    def test_sweep_materialises_no_new_cells_across_k(self, engine):
        engine.invalidate_sessions()
        engine.top_k(KEYWORDS, k=5)
        _res, stats = engine.top_k_with_stats(KEYWORDS, k=K)
        # The second sweep point reads the slot masses the first one
        # materialised: no kernel call, no fresh slot.
        assert stats.kernel_calls == 0
        assert stats.mass_cache_misses == 0
        assert stats.mass_cache_hits > 0


class TestDescribeBudgets:
    def test_greedy_pair_divs_linear_per_selection(self, profile):
        n = len(profile)
        k = min(20, n)
        _pos, stats = GreedyDescriber(profile).select_with_stats(k)
        # Incremental MMR: each (candidate, selection) pair costs at most
        # one pair_div — quadratic in k, not cubic.
        assert stats.pair_div_evals <= k * n
        assert stats.photos_examined <= k * n

    def test_st_rel_div_examines_no_more_pairs_than_greedy(self, profile):
        k = min(20, len(profile))
        _pos, greedy_stats = GreedyDescriber(profile).select_with_stats(k)
        _pos, st_stats = STRelDivDescriber(profile).select_with_stats(k)
        # The cell bounds exist to examine *fewer* photos; sharing the
        # incremental evaluator must not erode that advantage.
        assert st_stats.pair_div_evals <= greedy_stats.pair_div_evals
        assert st_stats.photos_examined <= greedy_stats.photos_examined
