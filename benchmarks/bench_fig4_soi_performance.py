"""Figure 4 — SOI vs BL query performance.

Paper, subplots (a)-(c): execution time varying k (default |Psi| = 3),
per city; subplots (d)-(f): varying |Psi| in 1..4 (default k = 50).
Findings to reproduce: k has only a small effect on either method; BL is
flat in |Psi| while SOI's time grows with |Psi| as more POIs become
relevant; SOI wins, with the factor shrinking as |Psi| grows (paper:
London 2.1-3.2x over the k sweep, 1.1-18x over the |Psi| sweep).

Here BL shares SOI's slot-mass pass and ranks with one NumPy reduction,
so BL is faster at every point and the timing finding is not reproduced
(EXPERIMENTS.md).  The summary therefore asserts what holds: SOI's
ranking equals BL's at every |Psi|, and at |Psi| = 1 SOI sees fewer
segments than the city has.  That gap is relevance sparsity, not
Lemma 1 pruning: every run ends ``complete``, its filter stopping when
UB fell to 0 after every relevant cell was popped, and BL's pass fills
the same slots.

Each (method, parameter) point is a pytest-benchmark entry; the derived
series are printed as the figure data.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import CITY_NAMES, emit
from repro.core.soi_baseline import BaselineSOI
from repro.eval.experiments import (
    PAPER_QUERY_KEYWORDS,
    engine_for,
    soi_timing_sweep_k,
    soi_timing_sweep_keywords,
)
from repro.eval.reporting import format_series

K_VALUES = (10, 25, 50, 100)
PSI_SIZES = (1, 2, 3, 4)


@pytest.mark.parametrize("k", K_VALUES)
def test_fig4_soi_varying_k(benchmark, engine, k):
    keywords = PAPER_QUERY_KEYWORDS[:3]
    benchmark.pedantic(lambda: engine.top_k(keywords, k=k, eps=0.0005),
                       rounds=3, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("k", K_VALUES)
def test_fig4_bl_varying_k(benchmark, engine, k):
    keywords = PAPER_QUERY_KEYWORDS[:3]
    baseline = BaselineSOI(engine)
    benchmark.pedantic(lambda: baseline.top_k(keywords, k=k, eps=0.0005),
                       rounds=3, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("size", PSI_SIZES)
def test_fig4_soi_varying_psi(benchmark, engine, size):
    keywords = PAPER_QUERY_KEYWORDS[:size]
    benchmark.pedantic(lambda: engine.top_k(keywords, k=50, eps=0.0005),
                       rounds=3, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("size", PSI_SIZES)
def test_fig4_bl_varying_psi(benchmark, engine, size):
    keywords = PAPER_QUERY_KEYWORDS[:size]
    baseline = BaselineSOI(engine)
    benchmark.pedantic(lambda: baseline.top_k(keywords, k=50, eps=0.0005),
                       rounds=3, iterations=1, warmup_rounds=1)


def test_fig4_series_summary(benchmark, all_cities):
    """The full figure data: one (soi, bl) series per subplot."""
    london_engine = engine_for(all_cities["london"])
    benchmark.pedantic(
        lambda: london_engine.top_k(PAPER_QUERY_KEYWORDS[:3], k=50),
        rounds=1, iterations=1)

    lines = []
    for name in CITY_NAMES:
        city = all_cities[name]
        by_k = soi_timing_sweep_k(city, ks=K_VALUES)
        lines.append(f"-- Figure 4 ({name}), varying k (|Psi|=3) --")
        lines.append(format_series(
            "SOI (s)", [k for k, _s, _b in by_k], [s for _k, s, _b in by_k]))
        lines.append(format_series(
            "BL  (s)", [k for k, _s, _b in by_k], [b for _k, _s, b in by_k]))
        by_psi = soi_timing_sweep_keywords(city, sizes=PSI_SIZES)
        lines.append(f"-- Figure 4 ({name}), varying |Psi| (k=50) --")
        lines.append(format_series(
            "SOI (s)", [p for p, _s, _b in by_psi],
            [s for _p, s, _b in by_psi]))
        lines.append(format_series(
            "BL  (s)", [p for p, _s, _b in by_psi],
            [b for _p, _s, b in by_psi]))
        engine = engine_for(city)
        baseline = BaselineSOI(engine)
        segments = len(city.network.segments)
        seen, complete, agrees = [], [], []
        for size in PSI_SIZES:
            keywords = PAPER_QUERY_KEYWORDS[:size]
            _ranking, stats = engine.top_k_with_stats(keywords, 50)
            seen.append(stats.segments_seen)
            complete.append(stats.complete)
            agrees.append(engine.top_k(keywords, k=50)
                          == baseline.top_k(keywords, k=50))
        lines.append(f"SOI segments seen (of {segments}): " + ", ".join(
            f"{size}={n}" for size, n in zip(PSI_SIZES, seen)))
        lines.append("SOI complete: " + ", ".join(
            f"{size}={flag}" for size, flag in zip(PSI_SIZES, complete)))
        lines.append("SOI ranking == BL ranking: " + ", ".join(
            f"{size}={flag}" for size, flag in zip(PSI_SIZES, agrees)))
        assert all(agrees), f"{name}: SOI's top-50 differs from BL's"
        assert seen[0] < segments, (
            f"{name}: SOI saw every segment on the selective |Psi|=1 query")
    emit("fig4", "\n".join(lines))
