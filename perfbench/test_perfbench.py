"""Checks of the serve benchmark on a reduced-size city.

Run from the repository root::

    python -m pytest perfbench/test_perfbench.py -q

Each workload serves a short stream on a small london: it must finish
with zero failures, print every metric that ``BENCHMARK.json`` names
with its unit, and give byte-identical streams and identical payloads
when run twice with the same seed.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import serving  # noqa: E402
import streams  # noqa: E402

SCALE = 0.05
LENGTH = 24
SEED = 7
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


PASSES = 2


def _run(workload: str, trace: bool, out_dir: Path):
    lines: list[str] = []
    result, payloads = run.run_benchmark(
        workload, SEED, seconds=0.0, trace=trace, scale=SCALE,
        min_passes=PASSES, stream_length=LENGTH, out_dir=out_dir,
        log=lines.append)
    return result, payloads, lines


@pytest.fixture(scope="module")
def small_engine():
    from repro.core.soi import SOIEngine
    from repro.datagen.presets import build_preset

    city = build_preset(serving.CITY, SCALE)
    return SOIEngine(city.network, city.pois)


def test_spec_lists_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(streams.WORKLOADS)
    assert ({m["name"]: m["unit"] for m in SPEC["end_to_end"]}
            == run.END_TO_END_UNITS)
    import layers

    assert ({m["name"]: m["unit"] for m in SPEC["per_layer"]}
            == layers.PER_LAYER_UNITS)


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_same_seed_gives_byte_identical_stream(workload, small_engine):
    streets = streams.describe_streets(small_engine)
    first = streams.make_stream(workload, SEED, streets, 500)
    second = streams.make_stream(workload, SEED, streets, 500)
    other = streams.make_stream(workload, SEED + 1, streets, 500)
    assert streams.stream_bytes(first) == streams.stream_bytes(second)
    assert streams.stream_bytes(first) != streams.stream_bytes(other)
    assert streams.READINESS_REQUEST not in first


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_workload_runs_clean_and_repeats(workload, tmp_path):
    result, payloads, lines = _run(workload, False, tmp_path)
    again, payloads_again, _ = _run(workload, False, tmp_path)
    for outcome in (result, again):
        assert outcome["correct"] is True
        assert outcome["attempted"] == PASSES * LENGTH
        assert outcome["failed"] == 0
        assert {name: metric["unit"]
                for name, metric in outcome["metrics"].items()} \
            == run.END_TO_END_UNITS
        assert all(metric["value"] > 0
                   for metric in outcome["metrics"].values())
    assert len(payloads) == LENGTH
    assert payloads == payloads_again
    assert any(line.startswith("perfbench traffic ") for line in lines)
    assert any(line.startswith("perfbench host ") for line in lines)
    assert any(line.startswith("perfbench passes ") for line in lines)


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_traced_run_reports_every_layer(workload, tmp_path):
    import layers

    result, _payloads, lines = _run(workload, True, tmp_path)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 2 * LENGTH
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} \
        == layers.PER_LAYER_UNITS
    for name, unit in layers.PER_LAYER_UNITS.items():
        assert any(line.startswith("perfbench layer ") and name in line
                   and line.endswith(unit) for line in lines), name
    share = result["metrics"]["trace.unattributed_share"]["value"]
    assert 0.0 <= share < 1.0
    trace = json.loads(
        (tmp_path / f"{workload}-{SEED}.trace.json").read_text())
    assert trace["traceEvents"]
    assert (tmp_path / f"{workload}-{SEED}.layers.json").is_file()


def test_stream_ends_when_the_worker_dies():
    """A worker killed mid-stream ends the client loop; the requests it
    held stay unanswered, so the run counts them as failed."""
    from repro.datagen.presets import build_preset

    class KillsTheWorker:
        """The server, with its worker killed before the third answer."""

        def __init__(self, server):
            self.server = server
            self.answers = 0

        @property
        def inflight(self):
            return self.server.inflight

        def submit(self, request):
            return self.server.submit(request)

        def next_result(self, timeout):
            if self.answers == 2:
                os.kill(self.server.worker_health()[0]["pid"],
                        signal.SIGKILL)
            self.answers += 1
            return self.server.next_result(timeout=timeout)

    city = build_preset(serving.CITY, SCALE)
    server, _engine, _phases = serving.start_server(city)
    served = []
    try:
        stream = streams.make_stream("soi_paging", SEED, [], LENGTH)
        client = threading.Thread(
            target=lambda: served.append(
                serving.serve_stream(KillsTheWorker(server), stream)),
            daemon=True)
        client.start()
        client.join(timeout=60)
        assert not client.is_alive(), (
            "the client kept waiting for a dead worker")
    finally:
        server.close()
    assert 2 <= len(served[0].payloads) < len(served[0].requests)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zipf_repeat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
