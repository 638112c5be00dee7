"""Table 2 / Figure 2 — effectiveness of SOI identification.

Paper: top-10 SOIs for "shop" in Berlin compared against two authoritative
Web lists of top shopping streets; recall@10 = 0.8 for both sources.

Here the ground truth is planted by the generator (the densest synthetic
shopping streets) and the two "sources" are noisy samples of it, as the
paper's tripadvisor/globalblue lists were of reality.  The timed quantity
is the k-SOI query itself.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.eval.experiments import engine_for, shopping_effectiveness
from repro.eval.reporting import format_table


def test_table2_shopping_streets_berlin(benchmark, berlin):
    engine = engine_for(berlin)
    engine.cell_maps.augmented_cell_counts_column(0.0005)
    benchmark.pedantic(
        lambda: engine.top_k(["shop"], k=10, eps=0.0005),
        rounds=3, iterations=1, warmup_rounds=1)

    report = shopping_effectiveness(berlin, "shop", k=10)
    width = max(len(report.ranked_street_names), 5)
    rows = []
    for rank in range(width):
        rows.append([
            rank + 1,
            report.ranked_street_names[rank]
            if rank < len(report.ranked_street_names) else "",
            report.source_names[0][rank]
            if rank < len(report.source_names[0]) else "",
            report.source_names[1][rank]
            if rank < len(report.source_names[1]) else "",
        ])
    table = format_table(
        ["Rank", "Top-10 SOIs", "Source #1", "Source #2"], rows,
        title='Table 2: identified top SOIs for "shop" in Berlin')
    recall_line = (
        f"recall@10 vs source #1: {report.recalls[0]:.2f}   "
        f"vs source #2: {report.recalls[1]:.2f}   (paper: 0.80 / 0.80)")
    emit("table2", table + "\n" + recall_line)
    # The paper reports 0.8; the planted ground truth should be recovered
    # at least that well.
    assert min(report.recalls) >= 0.6


def test_table2_recall_other_categories(benchmark, berlin):
    """Robustness beyond the paper: recall holds for other categories."""
    engine = engine_for(berlin)
    benchmark.pedantic(
        lambda: engine.top_k(["food"], k=10, eps=0.0005),
        rounds=3, iterations=1, warmup_rounds=1)
    lines = []
    recalls = []
    for category in ("food", "culture", "nightlife"):
        report = shopping_effectiveness(berlin, category, k=10)
        lines.append(f"{category:10s} recall@10: "
                     f"{report.recalls[0]:.2f} / {report.recalls[1]:.2f}")
        recalls.extend(report.recalls)
    emit("table2_other_categories", "\n".join(lines))
    # Sparse categories (culture has ~5x fewer POIs than food) are
    # noisier; require a solid average rather than a uniform floor.
    assert sum(recalls) / len(recalls) >= 0.35
