"""Figure 6 — ST_Rel+Div vs BL describe performance.

Paper, nine subplots: execution time varying k in {10..50} (a-c),
lambda (d-f) and w (g-i) over the three cities' top SOIs.  Findings of
the paper: the cell bounds make ST_Rel+Div consistently faster than the
naive greedy BL (paper: 2-64x); both grow with k, ST_Rel+Div scaling
better; lambda and w barely move either method.  Here the BL is the
vectorised exhaustive greedy (one NumPy Equation 10 update per pick):
ST_Rel+Div still examines fewer photos, which the summary asserts, but
at this data scale the BL is faster in wall time (EXPERIMENTS.md,
Figure 6).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import CITY_NAMES, emit
from repro.core.describe.greedy import GreedyDescriber
from repro.core.describe.st_rel_div import STRelDivDescriber
from repro.eval.experiments import describe_timing, top_soi_profile
from repro.eval.reporting import format_series

K_VALUES = (10, 20, 30, 40, 50)
WEIGHTS = (0.0, 0.25, 0.5, 0.75, 1.0)


@pytest.fixture(scope="session")
def profile(city):
    return top_soi_profile(city, "shop")


@pytest.mark.parametrize("k", K_VALUES)
def test_fig6_st_rel_div_varying_k(benchmark, profile, k):
    describer = STRelDivDescriber(profile)
    benchmark.pedantic(lambda: describer.select(k, 0.5, 0.5),
                       rounds=3, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("k", K_VALUES)
def test_fig6_bl_varying_k(benchmark, profile, k):
    describer = GreedyDescriber(profile)
    benchmark.pedantic(lambda: describer.select(k, 0.5, 0.5),
                       rounds=2, iterations=1)


@pytest.mark.parametrize("lam", WEIGHTS)
def test_fig6_st_rel_div_varying_lambda(benchmark, profile, lam):
    describer = STRelDivDescriber(profile)
    benchmark.pedantic(lambda: describer.select(20, lam, 0.5),
                       rounds=3, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("w", WEIGHTS)
def test_fig6_st_rel_div_varying_w(benchmark, profile, w):
    describer = STRelDivDescriber(profile)
    benchmark.pedantic(lambda: describer.select(20, 0.5, w),
                       rounds=3, iterations=1, warmup_rounds=1)


def test_fig6_series_summary(benchmark, all_cities):
    profiles = {name: top_soi_profile(all_cities[name], "shop")
                for name in CITY_NAMES}
    describer = STRelDivDescriber(profiles["vienna"])
    benchmark.pedantic(lambda: describer.select(20, 0.5, 0.5),
                       rounds=1, iterations=1)

    lines = []
    for name in CITY_NAMES:
        prof = profiles[name]
        lines.append(f"-- Figure 6 ({name}): |Rs| = {len(prof)} photos --")
        st_series, bl_series, st_examined, bl_examined = [], [], [], []
        for k in K_VALUES:
            times = describe_timing(prof, k=k, repeats=2)
            st_series.append(times["st_rel_div"])
            bl_series.append(times["bl"])
            for describer, examined in ((STRelDivDescriber(prof), st_examined),
                                        (GreedyDescriber(prof), bl_examined)):
                _sel, stats = describer.select_with_stats(k, 0.5, 0.5)
                examined.append(stats.photos_examined)
        lines.append(format_series("ST_Rel+Div (s)", K_VALUES, st_series))
        lines.append(format_series("BL         (s)", K_VALUES, bl_series))
        lines.append(format_series("ST_Rel+Div (photos examined)", K_VALUES,
                                   st_examined, digits=0))
        lines.append(format_series("BL         (photos examined)", K_VALUES,
                                   bl_examined, digits=0))
        # who wins: the bounds must prune photos at the largest k
        assert st_examined[-1] < bl_examined[-1], (
            f"{name}: ST_Rel+Div should examine fewer photos than BL "
            f"at k={K_VALUES[-1]}")
    emit("fig6", "\n".join(lines))
