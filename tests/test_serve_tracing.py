"""Cross-process tracing acceptance: stitched traces, live sketches, health.

These are the PR's acceptance criteria as tests: a 2-worker mixed
workload must stitch into ONE Chrome trace whose request spans carry
worker id and queue-wait annotations, the parent's merged-sketch
percentiles must sit within one log2 bucket of the exact per-request
service percentiles, and the heartbeat detector must tell a hung worker
(SIGSTOP) from a crashed one (SIGKILL).
"""

from __future__ import annotations

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.core.soi import SOIEngine
from repro.datagen import build_preset
from repro.errors import WorkerCrashError, WorkerStallError
from repro.obs.metrics import bucket_exponent
from repro.obs.export import validate_serve_trace
from repro.obs.tracer import tracing_enabled, tracing_scope
from repro.serve import EngineServer
from repro.serve.server import SOIRequest
from repro.serve.workload import make_workload

NUM_QUERIES = 10


@pytest.fixture(scope="module")
def traced_serve(tmp_path_factory):
    """One traced 2-worker mixed workload; the tests share its artefacts."""
    city = build_preset("vienna", scale=0.1)
    engine = SOIEngine(city.network, city.pois)
    requests = make_workload(engine, city.photos,
                             num_queries=NUM_QUERIES, seed=3)
    assert any(not isinstance(r, SOIRequest) for r in requests)
    trace_path = tmp_path_factory.mktemp("trace") / "serve.trace.json"
    with EngineServer.for_engine(engine, city.photos, workers=2) as server:
        with tracing_scope(True):
            payloads, service_s = server.run_with_stats(requests)
        assert not tracing_enabled()  # the scope does not leak
        server.export_trace(trace_path)
        # One worker may serve every request before the other publishes
        # its first heartbeat; the frame must not catch it starting.
        wait_for(lambda: all(worker["state"] != "starting"
                             for worker in server.worker_health()))
        artefacts = {
            "requests": requests,
            "payloads": payloads,
            "service_s": service_s,
            "trace": json.loads(trace_path.read_text(encoding="utf-8")),
            "trace_log": server.trace_requests(),
            "latency": server.latency_summary(),
            "telemetry": server.telemetry(),
            # The same workload again, untraced, on the same pool: the
            # payloads must not change by a single bit.
            "untraced_payloads": server.run(requests),
        }
    return artefacts


def test_workload_is_one_stitched_trace_with_annotated_requests(traced_serve):
    trace = traced_serve["trace"]
    assert validate_serve_trace(trace) == []
    events = trace["traceEvents"]
    roots = [e for e in events if e["args"]["parent_id"] == -1]
    children = [e for e in events if e["args"]["parent_id"] != -1]
    assert len(roots) == NUM_QUERIES
    assert children  # the workers shipped their spans back
    annotated = [e for e in roots
                 if "worker" in e["args"] and "queue_wait_s" in e["args"]]
    assert len(annotated) / len(roots) >= 0.95  # acceptance floor (it's 1.0)
    # Deterministic ids: one per submitted sequence number, in order.
    assert [e["args"]["trace_id"] for e in sorted(
        roots, key=lambda e: e["args"]["seq"])] == \
        [f"req-{seq:06d}" for seq in range(NUM_QUERIES)]
    # Worker ids are real pool members and both request kinds appear on
    # the stitched parents.
    assert {e["args"]["worker"] for e in roots} <= {0, 1}
    assert {e["args"]["kind"] for e in roots} == {"soi", "describe"}
    assert all(e["args"]["queue_wait_s"] >= 0.0 for e in roots)


def test_trace_log_records_only_traced_requests(traced_serve):
    log = traced_serve["trace_log"]
    # The untraced rerun must not grow the log: entries exist only for
    # requests submitted while tracing was enabled, each with its spans.
    assert len(log) == NUM_QUERIES
    assert all(r["worker_spans"] for r in log)
    assert all(r["trace_id"] == f"req-{r['seq']:06d}" for r in log)


def test_tracing_keeps_payloads_bit_identical(traced_serve):
    assert traced_serve["payloads"] == traced_serve["untraced_payloads"]


def test_merged_sketch_percentiles_match_exact_within_one_bucket(traced_serve):
    kinds = traced_serve["latency"]["kinds"]
    assert set(kinds) == {"soi", "describe"}
    by_kind: dict[str, list[float]] = {"soi": [], "describe": []}
    for request, seconds in zip(traced_serve["requests"],
                                traced_serve["service_s"]):
        kind = "soi" if isinstance(request, SOIRequest) else "describe"
        by_kind[kind].append(seconds)
    # The summary was captured right after the traced run, so the sketch
    # saw exactly the service times run_with_stats returned.
    for kind, samples in by_kind.items():
        stats = kinds[kind]
        assert stats["count"] == len(samples)
        for q, key in ((0.5, "p50_s"), (0.99, "p99_s")):
            exact = float(np.percentile(samples, q * 100,
                                        method="inverted_cdf"))
            assert bucket_exponent(stats[key]) == bucket_exponent(exact), \
                f"{kind} {key}: sketch {stats[key]} vs exact {exact}"
        assert stats["slowest"].startswith("req-")


def test_per_worker_sketches_partition_the_kind_totals(traced_serve):
    summary = traced_serve["latency"]
    assert summary["workers"] and set(summary["workers"]) <= {"0", "1"}
    for kind in ("soi", "describe"):
        total = summary["kinds"][kind]["count"]
        split = sum(worker.get(kind, {"count": 0})["count"]
                    for worker in summary["workers"].values())
        assert split == total


def test_telemetry_frame_reports_load_memory_and_health(traced_serve):
    telemetry = traced_serve["telemetry"]
    assert telemetry["completed_total"] == NUM_QUERIES
    assert telemetry["inflight"] == 0
    assert telemetry["shm_bytes"] > 0
    assert telemetry["micro_batch"] == 1
    assert len(telemetry["workers"]) == 2
    for worker in telemetry["workers"]:
        assert worker["status"] == "ok"
        assert worker["alive"] is True
        assert worker["state"] in ("idle", "busy")
        assert worker["heartbeat_age_s"] >= 0.0
    assert telemetry["latency"]["kinds"]["soi"]["p99_s"] > 0.0


def wait_for(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.05)


def test_stall_detector_tells_hung_from_crashed(small_engine):
    with EngineServer.for_engine(small_engine, workers=1) as server:
        wait_for(lambda: server.worker_health()[0]["state"] == "idle")
        server.check_worker_health()  # healthy pool: no raise
        pid = server._workers[0].pid
        os.kill(pid, signal.SIGSTOP)
        try:
            wait_for(lambda: server.worker_health(
                stall_after_s=0.5)[0]["status"] == "stalled")
            report = server.worker_health(stall_after_s=0.5)[0]
            assert report["alive"] is True  # hung, not dead
            with pytest.raises(WorkerStallError) as excinfo:
                server.check_worker_health(stall_after_s=0.5)
            assert "alive but not heartbeating" in str(excinfo.value)
        finally:
            os.kill(pid, signal.SIGCONT)
        # The worker resumes beating and the pool still serves.
        wait_for(lambda: server.worker_health(
            stall_after_s=0.5)[0]["status"] == "ok")
        payloads = server.run([SOIRequest(keywords=("food",), k=3)])
        assert payloads


def test_health_reports_a_crashed_worker(small_engine):
    server = EngineServer.for_engine(small_engine, workers=1)
    try:
        worker = server._workers[0]
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=10.0)
        report = server.worker_health()[0]
        assert report["status"] == "crashed"
        assert report["alive"] is False
        with pytest.raises(WorkerCrashError):
            server.check_worker_health()
    finally:
        server.close()
