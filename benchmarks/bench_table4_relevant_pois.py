"""Table 4 — relevant POIs per cumulative keyword set.

Paper: the number of POIs matching the cumulative query sets
{religion} ⊂ {religion, education} ⊂ ... ⊂ {religion, education, food,
services}, per city — e.g. London grows 10,445 -> 202,127 (0.5% -> 9.6% of
all POIs).  The synthetic datasets reproduce the *shape*: counts grow
monotonically, religion is rare, food/services dominate, and even the
broadest set stays around a tenth of the POIs.

The timed quantity is ``POIGridIndex.total_relevant``: the number of POIs
the keyword postings' relevance mask selects.
"""

from __future__ import annotations

from benchmarks.conftest import CITY_NAMES, emit
from repro.eval.experiments import (
    PAPER_QUERY_KEYWORDS,
    engine_for,
    relevant_poi_counts,
)
from repro.eval.reporting import format_table


def test_table4_relevant_poi_counts(benchmark, all_cities):
    london_engine = engine_for(all_cities["london"])
    benchmark.pedantic(
        lambda: london_engine.poi_index.total_relevant(PAPER_QUERY_KEYWORDS),
        rounds=3, iterations=1)

    rows = []
    for name in CITY_NAMES:
        counts = relevant_poi_counts(all_cities[name])
        total = len(all_cities[name].pois)
        rows.append([name.capitalize()]
                    + [f"{c} ({100 * c / total:.1f}%)" for c in counts])
    emit("table4", format_table(
        ["Dataset", "|Psi|=1", "|Psi|=2", "|Psi|=3", "|Psi|=4"], rows,
        title="Table 4: relevant POIs per cumulative keyword set "
              "(religion, education, food, services)"))

    for name in CITY_NAMES:
        counts = relevant_poi_counts(all_cities[name])
        assert counts == sorted(counts), "counts must grow with |Psi|"
        assert counts[0] > 0
        # even |Psi|=4 stays a small fraction, as in the paper (~10%)
        assert counts[-1] < 0.25 * len(all_cities[name].pois)
