"""The bench report schema and the --check-against comparator."""

from __future__ import annotations

import pytest

from repro.perf import bench


def soi_report(median_s: float = 1.0, kernel_calls: int = 7) -> dict:
    """A one-city report shaped like ``BENCH_soi.json``."""
    return {
        "suite": "soi",
        "schema_version": bench.SCHEMA_VERSION,
        "ks": [10],
        "environment": {"python": "3.11.7", "numpy": "1.26", "cpu_count": 4},
        "cities": {"vienna": {
            "soi_k_sweep_median_s": median_s,
            "bl_k_sweep_median_s": 0.20,
            "soi_k_points": {"10": 0.01},
            "counters": {"cold": {"kernel_calls": kernel_calls}},
        }},
    }


def test_reports_carry_schema_version():
    assert bench.SCHEMA_VERSION == 5
    assert soi_report()["schema_version"] == bench.SCHEMA_VERSION


def test_compare_passes_within_tolerance():
    base = soi_report(1.0)
    current = soi_report(1.1)  # 10% drift, tolerance 20%
    assert bench.compare_reports(current, base, tolerance=0.2) == []
    assert [r["metric"] for r in bench.compare_reports(
        current, base, tolerance=0.05)] == [
        "cities.vienna.soi_k_sweep_median_s"]


def test_compare_flags_regressions_in_both_directions():
    """A median regresses only upwards; a counter either way."""
    base = soi_report(1.0, kernel_calls=40)

    def flagged(current: dict) -> dict:
        return {r["metric"]: r["direction"]
                for r in bench.compare_reports(current, base, tolerance=0.2)}

    counter = "cities.vienna.counters.cold.kernel_calls"
    assert flagged(soi_report(3.0, kernel_calls=41)) == {
        "cities.vienna.soi_k_sweep_median_s": "lower", counter: "equal"}
    assert flagged(soi_report(0.3, kernel_calls=39)) == {counter: "equal"}


def test_compare_latency_suite_medians():
    base = {"schema_version": 2,
            "cities": {"vienna": {"soi_median_s": 1.0,
                                  "k_points": {"10": 0.5}}}}
    worse = {"schema_version": 2,
             "cities": {"vienna": {"soi_median_s": 1.5,
                                   "k_points": {"10": 0.9}}}}
    regressions = bench.compare_reports(worse, base, tolerance=0.2)
    assert [r["metric"] for r in regressions] == [
        "cities.vienna.soi_median_s", "cities.vienna.k_points.10"]
    assert bench.compare_reports(base, worse, tolerance=0.2) == []


def test_compare_flags_any_changed_counter():
    def report(kernel_calls: int, pruned: int) -> dict:
        return {"schema_version": bench.SCHEMA_VERSION,
                "cities": {"vienna": {"soi_median_s": 1.0, "counters": {
                    "cold": {"kernel_calls": kernel_calls,
                             "refinement_pruned": pruned}}}}}

    base = report(40, 0)
    assert bench.compare_reports(report(40, 0), base, tolerance=10.0) == []
    # Counters are exact: fewer is flagged like more, zeros included,
    # whatever the timing tolerance.
    flagged = bench.compare_reports(report(39, 2), base, tolerance=10.0)
    assert {(r["metric"], r["direction"]) for r in flagged} == {
        ("cities.vienna.counters.cold.kernel_calls", "equal"),
        ("cities.vienna.counters.cold.refinement_pruned", "equal")}


def test_compare_rejects_schema_mismatch():
    with pytest.raises(ValueError):
        bench.compare_reports({"schema_version": 1},
                              {"schema_version": 3})
    # Reports predating the field default to version 1.
    with pytest.raises(ValueError):
        bench.compare_reports({}, soi_report())


def test_compare_accepts_v2_baseline_against_v3_current():
    """Schemas 3/4 only add obs sections; v2 baselines stay comparable."""
    assert bench.COMPARABLE_SCHEMAS == frozenset({2, 3, 4, 5})
    base = {"schema_version": 2,
            "cities": {"vienna": {"soi_median_s": 1.0}}}
    current = {"schema_version": 3,
               "cities": {"vienna": {"soi_median_s": 1.0,
                                     "obs": {"span_count": 7}}}}
    assert bench.compare_reports(current, base, tolerance=0.2) == []
    # The obs medians are informational, never regression-gated.
    slower_obs = {"schema_version": 3,
                  "cities": {"vienna": {
                      "soi_median_s": 1.0,
                      "obs": {"median_trace_off_s": 9.0,
                              "median_trace_on_s": 9.0}}}}
    assert bench.compare_reports(
        slower_obs, current, tolerance=0.2) == []


def test_compare_noise_floor_absorbs_millisecond_jitter():
    """Sub-``min_delta_s`` drifts never regress, however large relatively."""
    base = {"schema_version": 2,
            "cities": {"vienna": {"soi_median_s": 0.002,
                                  "k_points": {"10": 0.003}}}}
    jittered = {"schema_version": 2,
                "cities": {"vienna": {"soi_median_s": 0.006,
                                      "k_points": {"10": 0.007}}}}
    # 2x-3x relative blowups, but each only +4ms absolute.
    assert bench.compare_reports(jittered, base, tolerance=0.2) == []
    # Tightening the floor restores the relative gate.
    metrics = [r["metric"] for r in bench.compare_reports(
        jittered, base, tolerance=0.2, min_delta_s=0.001)]
    assert metrics == ["cities.vienna.soi_median_s",
                       "cities.vienna.k_points.10"]


def test_compare_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        bench.compare_reports(soi_report(), soi_report(), tolerance=-0.1)


def test_history_record_keeps_medians_counters_and_environment():
    record = bench.history_record(soi_report(0.05))
    assert record["suite"] == "soi"
    assert record["schema_version"] == bench.SCHEMA_VERSION
    city = record["cities"]["vienna"]
    assert city["medians"] == {"soi_k_sweep_median_s": 0.05,
                               "bl_k_sweep_median_s": 0.20}
    assert city["counters"] == {"cold": {"kernel_calls": 7}}
    assert record["environment"]["cpu_count"] == 4
    # Per-point sweeps are detail the one-line log deliberately drops.
    assert "soi_k_points" not in str(city["medians"])


def test_append_history_round_trips_one_line_per_run(tmp_path):
    path = tmp_path / "BENCH_history.jsonl"
    bench.append_history(soi_report(0.05), path)
    bench.append_history(dict(soi_report(0.06), suite="describe"), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    records = bench.read_history(path)
    assert [r["suite"] for r in records] == ["soi", "describe"]
    # Records are deterministic: same report, same byte-identical line.
    bench.append_history(soi_report(0.05), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[2] == lines[0]
    assert bench.read_history(tmp_path / "missing.jsonl") == []
