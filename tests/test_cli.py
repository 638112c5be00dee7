"""Tests for the command-line interface (:mod:`repro.cli`)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main


def assert_one_error_line(capsys, error_type: str, named: str) -> None:
    """The command printed exactly one ``error: <type>: ...`` line to
    stderr, naming the problem, and no traceback."""
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()], err
    assert err.startswith(f"error: {error_type}: "), err
    assert named in err, err


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A generated tenth-scale Vienna on disk."""
    out = tmp_path_factory.mktemp("cli") / "vienna"
    code = main(["generate", "--preset", "vienna", "--scale", "0.1",
                 "--out", str(out)])
    assert code == 0
    return out


class TestGenerate:
    def test_writes_three_files(self, data_dir):
        assert (data_dir / "network.json").exists()
        assert (data_dir / "pois.json").exists()
        assert (data_dir / "photos.json").exists()

    def test_output_message(self, data_dir, capsys, tmp_path):
        main(["generate", "--preset", "vienna", "--scale", "0.1",
              "--out", str(tmp_path / "again")])
        out = capsys.readouterr().out
        assert "segments" in out and "POIs" in out


class TestStats:
    def test_prints_table(self, data_dir, capsys):
        assert main(["stats", "--data", str(data_dir)]) == 0
        out = capsys.readouterr().out
        assert "segments" in out
        assert "photos" in out


class TestSOI:
    def test_query_prints_ranking(self, data_dir, capsys):
        assert main(["soi", "--data", str(data_dir),
                     "--keywords", "shop", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "top-3 SOIs" in out
        assert "interest" in out

    def test_unmatched_keywords_exit_1(self, data_dir, capsys):
        assert main(["soi", "--data", str(data_dir),
                     "--keywords", "warpdrive"]) == 1
        assert "no street matches" in capsys.readouterr().out

    def test_bad_k_is_a_query_error(self, data_dir, capsys):
        assert main(["soi", "--data", str(data_dir),
                     "--keywords", "shop", "-k", "0"]) == 2
        assert_one_error_line(capsys, "QueryError", "k must be at least 1")


class TestDescribe:
    def test_default_street_is_top_soi(self, data_dir, capsys):
        assert main(["describe", "--data", str(data_dir),
                     "--keywords", "shop", "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "photo summary" in out

    def test_explicit_street(self, data_dir, capsys):
        # find a street with photos via the default path first
        assert main(["describe", "--data", str(data_dir), "-k", "1"]) == 0

    def test_unmatched_keywords_exit_1(self, data_dir, capsys):
        assert main(["describe", "--data", str(data_dir),
                     "--keywords", "warpdrive"]) == 1

    @pytest.mark.parametrize("flags, named", [
        (["--street", "999999"], "unknown street"),
        (["--street", "0", "--eps", "-1"], "eps must be non-negative"),
        (["--street", "0", "--rho", "nan"], "rho must be positive"),
    ])
    def test_bad_parameters_are_query_errors(self, data_dir, capsys, flags,
                                             named):
        assert main(["describe", "--data", str(data_dir), *flags]) == 2
        assert_one_error_line(capsys, "QueryError", named)


class TestBench:
    def test_writes_reports_with_medians_and_counters(self, tmp_path,
                                                      capsys):
        import json

        assert main(["bench", "--cities", "vienna",
                     "--repeats", "1", "--scale", "0.05",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "BENCH_soi.json" in out and "BENCH_describe.json" in out
        # Each suite prints its figure's series per city.
        for series in ("-- Figure 4 (vienna), varying k (|Psi|=3) --",
                       "-- Figure 4 (vienna), varying |Psi| (k=50) --",
                       "-- Figure 6 (vienna), varying lambda (k=20, "
                       "w=0.5) --",
                       "-- Figure 6 (vienna), varying w (k=20, "
                       "lambda=0.5) --"):
            assert series in out

        soi = json.loads((tmp_path / "BENCH_soi.json").read_text())
        assert soi["suite"] == "soi"
        entry = soi["cities"]["vienna"]
        assert entry["soi_k_sweep_median_s"] > 0
        assert entry["bl_psi_sweep_median_s"] > 0
        assert set(entry["counters"]) == {"cold", "warm", "psi"}
        assert set(entry["counters"]["psi"]) == {"1", "2", "3", "4"}
        for work in entry["counters"]["psi"].values():
            assert 0 < work["segments_seen"] <= entry["num_segments"]
            assert work["complete"] in (0, 1)
        # The warm rerun of an identical query is fully memo-served.
        assert entry["counters"]["warm"]["kernel_calls"] == 0
        assert entry["counters"]["warm"]["session_reused"] == 1
        assert "python" in soi["environment"]

        describe = json.loads(
            (tmp_path / "BENCH_describe.json").read_text())
        assert describe["suite"] == "describe"
        entry = describe["cities"]["vienna"]
        assert entry["num_photos"] > 0
        for axis, points in (("k", (10, 20, 30, 40, 50)),
                             ("lam", (0.0, 0.25, 0.5, 0.75, 1.0)),
                             ("w", (0.0, 0.25, 0.5, 0.75, 1.0))):
            for method in ("bl", "st"):
                assert entry[f"{method}_{axis}_sweep_median_s"] > 0
                assert set(entry[f"{method}_{axis}_points"]) == {
                    str(point) for point in points}
                examined = entry["counters"]["photos_examined"]
                assert set(examined[f"{method}_{axis}"]) == {
                    str(point) for point in points}
        assert set(entry["counters"]) == {"bl_k50", "st_k50",
                                          "photos_examined"}

    def test_single_suite_writes_one_file(self, tmp_path, capsys):
        assert main(["bench", "--mode", "soi", "--cities", "vienna",
                     "--repeats", "1", "--scale", "0.05",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "BENCH_soi.json").exists()
        assert not (tmp_path / "BENCH_describe.json").exists()

    def test_check_against_rejects_wrong_suite(self, tmp_path, capsys):
        import json

        baseline = tmp_path / "BENCH_describe.json"
        baseline.write_text(json.dumps({"suite": "describe"}))
        assert main(["bench", "--mode", "soi", "--cities", "vienna",
                     "--repeats", "1", "--scale", "0.05",
                     "--out", str(tmp_path),
                     "--check-against", str(baseline)]) == 2

    @pytest.mark.parametrize("selector", [["--suite", "soi"],
                                          ["--mode", "latency"]])
    def test_retired_suite_selectors_exit_2(self, tmp_path, capsys,
                                            selector):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", *selector, "--out", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro") and selector[1] in err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _bl_drops_its_last_row(monkeypatch):
        from repro.core.soi_baseline import BaselineSOI

        top_k = BaselineSOI.top_k
        monkeypatch.setattr(BaselineSOI, "top_k",
                            lambda self, *args, **kwargs:
                                top_k(self, *args, **kwargs)[:-1])

    @staticmethod
    def _greedy_swaps_two_picks(monkeypatch):
        from repro.core.describe.greedy import GreedyDescriber

        select_with_stats = GreedyDescriber.select_with_stats

        def swapped(self, *args, **kwargs):
            picks, stats = select_with_stats(self, *args, **kwargs)
            return [picks[1], picks[0], *picks[2:]], stats

        monkeypatch.setattr(GreedyDescriber, "select_with_stats", swapped)

    @pytest.mark.parametrize("mode, plant", [
        ("soi", "_bl_drops_its_last_row"),
        ("describe", "_greedy_swaps_two_picks"),
    ])
    def test_disagreement_exits_1_without_a_report(
            self, tmp_path, capsys, monkeypatch, mode, plant):
        getattr(self, plant)(monkeypatch)
        out = tmp_path / "out"
        history = tmp_path / "history.jsonl"
        assert main(["bench", "--mode", mode, "--cities", "vienna",
                     "--repeats", "1", "--scale", "0.05",
                     "--out", str(out), "--history", str(history)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: vienna: ") and "differs" in err
        assert "no report written" in err
        assert not out.exists() and not history.exists()

    def test_mode_soi_alias_and_trace_out(self, tmp_path, capsys):
        import json

        traces = tmp_path / "traces"
        assert main(["bench", "--mode", "soi", "--cities", "vienna",
                     "--repeats", "1", "--scale", "0.05",
                     "--out", str(tmp_path),
                     "--trace-out", str(traces)]) == 0
        assert (tmp_path / "BENCH_soi.json").exists()
        assert not (tmp_path / "BENCH_describe.json").exists()
        report = json.loads((tmp_path / "BENCH_soi.json").read_text())
        entry = report["cities"]["vienna"]
        obs = entry["obs"]
        assert obs["span_count"] > 0
        assert obs["median_trace_off_s"] > 0
        assert obs["median_trace_on_s"] > 0
        assert entry["trace_files"]  # one Chrome trace per sweep point
        for name in entry["trace_files"]:
            path = Path(name)
            assert path.parent == traces
            trace = json.loads(path.read_text())
            assert any(event["name"] == "soi.query"
                       for event in trace["traceEvents"]), name
        # Tracing state must not leak out of the bench run.
        from repro.obs.tracer import tracing_enabled
        assert not tracing_enabled()


class TestMetrics:
    def test_dumps_counters_and_histograms(self, data_dir, capsys):
        assert main(["metrics", "--data", str(data_dir),
                     "--keywords", "shop", "--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert "soi.queries" in out
        assert "soi.query_s" in out
        assert "session.pool_size" in out

    def test_json_dump_with_trace_and_slowlog(self, data_dir, capsys):
        import json

        from repro.obs.tracer import enable_tracing

        try:
            assert main(["metrics", "--data", str(data_dir),
                         "--keywords", "shop", "--repeat", "1",
                         "--json", "--trace", "--slow-threshold", "0"]) == 0
        finally:
            enable_tracing(False)
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["counters"]["soi.queries"] >= 1
        assert payload["spans"]["count"] > 0
        assert "soi.filter" in payload["spans"]["self_time_ns"]
        assert payload["slow_queries"]  # threshold 0 records every query

    def test_openmetrics_exposition(self, data_dir, capsys, tmp_path):
        assert main(["metrics", "--data", str(data_dir),
                     "--keywords", "shop", "--repeat", "1",
                     "--openmetrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_soi_queries counter" in out
        assert "repro_soi_queries_total" in out
        assert out.endswith("# EOF\n")
        path = tmp_path / "metrics.prom"
        assert main(["metrics", "--data", str(data_dir),
                     "--keywords", "shop", "--repeat", "1",
                     "--openmetrics", "-o", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert "repro_soi_queries_total" in path.read_text(encoding="utf-8")

    def test_slowlog_json_dump_carries_trace_ids(self, data_dir, capsys):
        import json

        assert main(["metrics", "--data", str(data_dir),
                     "--keywords", "shop", "--repeat", "1",
                     "--slowlog-json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["slow_queries"]  # implied threshold 0 records all
        assert all("trace_id" in record
                   for record in payload["slow_queries"])


class TestTop:
    def test_frames_render_load_and_worker_health(self, data_dir, capsys):
        assert main(["top", "--data", str(data_dir), "--workers", "1",
                     "--queries", "4", "--frames", "2",
                     "--interval", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "repro top — 4 requests" in out
        assert "[final] qps" in out
        assert "worker 0:" in out
        # The final frame reports the served kinds' live percentiles.
        assert "p99" in out


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["teleport"])

    @pytest.mark.parametrize("command, flag, value", [
        ("top", "--workers", "0"),
        ("top", "--batch", "0"),
        ("top", "--queries", "0"),
        ("bench", "--tolerance", "-0.1"),
        ("bench", "--repeats", "0"),
        ("bench", "--jobs", "0"),
        ("top", "--interval", "0"),
        ("top", "--interval", "-1"),
        ("top", "--frames", "0"),
        ("metrics", "--repeat", "0"),
        ("metrics", "--repeat", "-3"),
        ("top", "--stall-after", "-1"),
        ("top", "--stall-after", "nan"),
        ("top", "--seed", "-1"),
        ("generate", "--scale", "0"),
        ("generate", "--scale", "nan"),
        ("bench", "--scale", "0"),
    ])
    def test_out_of_range_numbers_exit_2_before_any_work(
            self, data_dir, tmp_path, capsys, command, flag, value):
        if command in ("top", "metrics"):
            argv = [command, "--data", str(data_dir)]
        elif command == "generate":
            argv = ["generate", "--out", str(tmp_path / "out")]
        else:
            baseline = tmp_path / "BENCH_soi.json"
            baseline.write_text('{"suite": "soi", "schema_version": 5}')
            argv = ["bench", "--mode", "soi", "--cities", "vienna",
                    "--scale", "0.05", "--out", str(tmp_path / "out"),
                    "--check-against", str(baseline)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usage: repro {command}" in captured.err
        assert f"argument {flag}: must be" in captured.err
        assert not (tmp_path / "out").exists()
