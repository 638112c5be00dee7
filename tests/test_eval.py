"""Tests for :mod:`repro.eval` (metrics, timing, reporting, experiments)."""

from __future__ import annotations

import pytest

from repro.eval.metrics import (
    average_precision,
    precision_at_k,
    recall_at_k,
    reciprocal_rank,
)
from repro.eval.reporting import format_float, format_series, format_table
from repro.eval.timing import Timer, best_of, time_call


class TestMetrics:
    RANKED = ["a", "b", "c", "d", "e"]

    def test_recall_at_k(self):
        assert recall_at_k(self.RANKED, ["a", "c", "z"], 3) == \
            pytest.approx(2 / 3)
        assert recall_at_k(self.RANKED, ["a"], 1) == 1.0
        assert recall_at_k(self.RANKED, ["z"], 5) == 0.0

    def test_recall_empty_relevant(self):
        assert recall_at_k(self.RANKED, [], 3) == 0.0

    def test_recall_paper_scenario(self):
        """Table 2: 4 of 5 source streets in the top 10 -> recall 0.8."""
        ranked = [f"s{i}" for i in range(10)]
        relevant = ["s0", "s3", "s7", "s9", "missing"]
        assert recall_at_k(ranked, relevant, 10) == pytest.approx(0.8)

    def test_precision_at_k(self):
        assert precision_at_k(self.RANKED, ["a", "c"], 2) == 0.5
        assert precision_at_k(self.RANKED, ["a", "b"], 2) == 1.0
        assert precision_at_k(self.RANKED, ["a"], 0) == 0.0

    def test_precision_k_beyond_length(self):
        assert precision_at_k(["a"], ["a"], 10) == 1.0

    def test_negative_k_raises(self):
        with pytest.raises(ValueError):
            recall_at_k(self.RANKED, ["a"], -1)
        with pytest.raises(ValueError):
            precision_at_k(self.RANKED, ["a"], -1)

    def test_average_precision(self):
        # relevant at ranks 1 and 3: AP = (1/1 + 2/3) / 2
        assert average_precision(["a", "b", "c"], ["a", "c"]) == \
            pytest.approx((1.0 + 2 / 3) / 2)
        assert average_precision(["a"], []) == 0.0

    def test_reciprocal_rank(self):
        assert reciprocal_rank(self.RANKED, ["c"]) == pytest.approx(1 / 3)
        assert reciprocal_rank(self.RANKED, ["z"]) == 0.0


class TestTiming:
    def test_timer_context(self):
        with Timer() as t:
            sum(range(100))
        assert t.seconds >= 0.0

    def test_time_call_returns_result(self):
        result, seconds = time_call(lambda: 42)
        assert result == 42
        assert seconds >= 0.0

    def test_best_of(self):
        result, seconds = best_of(lambda: "x", repeats=3)
        assert result == "x"
        assert seconds >= 0.0

    def test_best_of_validates_repeats(self):
        with pytest.raises(ValueError):
            best_of(lambda: 1, repeats=0)


class TestReporting:
    def test_format_float(self):
        assert format_float(1.23456) == "1.235"
        assert format_float(1.2, digits=1) == "1.2"

    def test_format_table_alignment(self):
        table = format_table(["name", "value"],
                             [["a", 1], ["longer", 22]],
                             title="Demo")
        lines = table.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", "+"}
        assert len(lines) == 5

    def test_format_series(self):
        out = format_series("soi", [10, 20], [0.5, 0.25], digits=2)
        assert out == "soi: 10=0.50, 20=0.25"


class TestExperimentDrivers:
    """Smoke tests of the per-table/figure drivers on the small city."""

    def test_dataset_stats(self, small_city):
        from repro.eval.experiments import dataset_stats

        stats = dataset_stats(small_city)
        assert stats["dataset"] == "testville"
        assert stats["num_segments"] == len(small_city.network.segments)
        assert stats["num_pois"] == len(small_city.pois)
        assert stats["min_segment_length"] <= stats["max_segment_length"]

    def test_relevant_poi_counts_monotone(self, small_city):
        from repro.eval.experiments import relevant_poi_counts

        counts = relevant_poi_counts(small_city)
        assert len(counts) == 4
        assert counts == sorted(counts)

    def test_shopping_effectiveness(self, small_city):
        from repro.eval.experiments import shopping_effectiveness

        report = shopping_effectiveness(small_city, k=10)
        assert len(report.recalls) == 2
        assert all(0.0 <= r <= 1.0 for r in report.recalls)
        assert len(report.ranked_street_ids) <= 10
        assert len(report.ranked_street_names) == \
            len(report.ranked_street_ids)

    def test_top_soi_profile_and_scores(self, small_city):
        from repro.eval.experiments import describe_scores, top_soi_profile

        profile = top_soi_profile(small_city, "shop")
        assert len(profile) > 0
        scores = describe_scores(profile, k=3)
        assert scores["ST_Rel+Div"] == pytest.approx(1.0)
        assert set(scores) == {
            "S_Rel", "S_Div", "S_Rel+Div", "T_Rel", "T_Div", "T_Rel+Div",
            "ST_Rel", "ST_Div", "ST_Rel+Div"}

    def test_tradeoff_curve(self, small_city):
        from repro.eval.experiments import top_soi_profile, tradeoff_curve

        profile = top_soi_profile(small_city, "shop")
        curve = tradeoff_curve(profile, k=5, lambdas=(0.0, 0.5, 1.0))
        assert [lam for lam, _r, _d in curve] == [0.0, 0.5, 1.0]
        rels = [r for _lam, r, _d in curve]
        divs = [d for _lam, _r, d in curve]
        assert max(rels) == pytest.approx(1.0)
        assert max(divs) == pytest.approx(1.0)
        # relevance weakly decreases as lambda grows; diversity weakly grows
        assert rels[0] >= rels[-1] - 1e-9
        assert divs[-1] >= divs[0] - 1e-9
