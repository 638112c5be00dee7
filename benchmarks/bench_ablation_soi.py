"""Ablations on the SOI algorithm (beyond the paper's experiments).

DESIGN.md calls out three design choices worth isolating:

* **access strategy** — the paper's pseudocode round-robins SL1/SL2/SL3
  while its implementation alternates SL1/SL3 with adaptive SL2 access;
  correctness is strategy-independent, cost is not;
* **refinement pruning** — our optimistic-bound pruning of partial
  segments during refinement (the paper finalises everything seen);
* **grid cell size** — the paper says "arbitrary cell size"; this sweep
  shows the cost of choosing badly.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro.core.soi import AccessStrategy, SOIEngine
from repro.eval.experiments import PAPER_QUERY_KEYWORDS, engine_for
from repro.eval.reporting import format_table
from repro.eval.timing import best_of

KEYWORDS = PAPER_QUERY_KEYWORDS[:3]


@pytest.mark.parametrize("strategy", list(AccessStrategy))
def test_ablation_access_strategy(benchmark, london, strategy):
    engine = engine_for(london)
    engine.cell_maps.augmented_cell_counts_column(0.0005)
    benchmark.pedantic(
        lambda: engine.top_k(KEYWORDS, k=50, eps=0.0005, strategy=strategy),
        rounds=3, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("prune", [True, False])
def test_ablation_refinement_pruning(benchmark, london, prune):
    engine = engine_for(london)
    benchmark.pedantic(
        lambda: engine.top_k(KEYWORDS, k=50, eps=0.0005,
                             prune_refinement=prune),
        rounds=3, iterations=1, warmup_rounds=1)


def test_ablation_summary(benchmark, london):
    engine = engine_for(london)
    benchmark.pedantic(lambda: engine.top_k(KEYWORDS, k=50), rounds=1,
                       iterations=1)

    rows = []
    reference = None
    for strategy in AccessStrategy:
        (_res, stats), seconds = best_of(
            lambda s=strategy: engine.top_k_with_stats(
                KEYWORDS, k=50, eps=0.0005, strategy=s), repeats=3)
        rows.append([f"strategy={strategy.value}", f"{seconds * 1000:.1f}",
                     stats.segments_seen, stats.cell_visits])
        if strategy is AccessStrategy.ALTERNATE:
            reference = {r.street_id for r in _res}
    for prune in (True, False):
        (_res, stats), seconds = best_of(
            lambda p=prune: engine.top_k_with_stats(
                KEYWORDS, k=50, eps=0.0005, prune_refinement=p), repeats=3)
        rows.append([f"prune_refinement={prune}", f"{seconds * 1000:.1f}",
                     stats.segments_seen, stats.cell_visits])
        assert {r.street_id for r in _res} == reference

    emit("ablation_soi", format_table(
        ["Variant", "time (ms)", "segments seen", "cell visits"], rows,
        title="SOI ablations (London, |Psi|=3, k=50)"))


def test_ablation_grid_cell_size(benchmark, london):
    """Cell-size sweep — rebuilds the engine per size, so rounds=1."""
    def build_and_query(cell_size: float):
        engine = SOIEngine(london.network, london.pois, cell_size=cell_size)
        return engine.top_k(["shop"], k=50, eps=0.0005)

    benchmark.pedantic(build_and_query, args=(0.001,), rounds=1,
                       iterations=1)

    rows = []
    expected = None
    for cell_size in (0.0005, 0.001, 0.002, 0.004):
        engine = SOIEngine(london.network, london.pois, cell_size=cell_size)
        results, seconds = best_of(
            lambda e=engine: e.top_k(["shop"], k=50, eps=0.0005), repeats=2)
        values = [round(r.interest, 6) for r in results]
        if expected is None:
            expected = values
        else:
            assert values == expected, "cell size must not change results"
        rows.append([cell_size, f"{seconds * 1000:.1f}"])
    emit("ablation_soi_cell_size", format_table(
        ["cell size (deg)", "query time (ms)"], rows,
        title="SOI grid cell-size sweep (London, shop, k=50)"))
