"""EngineServer: multiprocess serving smoke, staleness, crash cleanup.

These tests spawn real worker processes (``spawn`` context), so each one
keeps its pool small and its workload short; the two-worker smoke test is
the tier-1 guard that the scale-out path actually serves mixed queries.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core.soi import SOIEngine
from repro.datagen import build_preset
from repro.errors import ReproError, StaleSnapshotError, WorkerCrashError
from repro.serve import EngineServer
from repro.serve.server import DescribeRequest, SOIRequest, serve_request
from repro.serve.workload import make_workload


def shm_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


def test_two_worker_smoke_on_smallest_preset():
    """Satellite smoke: vienna, 2 workers, 8 mixed queries, bit-identical."""
    started = time.perf_counter()
    city = build_preset("vienna", scale=0.1)
    engine = SOIEngine(city.network, city.pois)
    requests = make_workload(engine, city.photos, num_queries=8, seed=1)
    assert any(not isinstance(r, SOIRequest) for r in requests), \
        "workload should mix in describe requests"
    with EngineServer.for_engine(engine, city.photos, workers=2) as server:
        payloads = server.run(requests)
    expected = [serve_request(engine, city.photos, request)
                for request in requests]
    assert payloads == expected
    assert time.perf_counter() - started < 10.0


def test_worker_errors_propagate_without_killing_the_pool(small_engine):
    with EngineServer.for_engine(small_engine, workers=1) as server:
        bogus = SOIRequest(keywords=("food",), k=5, strategy="not-a-strategy")
        server.submit(bogus)
        with pytest.raises(ReproError):
            server.next_result(timeout=30.0)
        # The worker survives the error and keeps serving.
        good = SOIRequest(keywords=("food",), k=5)
        server.submit(good)
        _seq, payload, _service = server.next_result(timeout=30.0)
        assert payload == serve_request(small_engine, None, good)


def test_stale_generation_rejected_then_refresh_serves_again(small_city):
    """Re-attach covers the photo table too: after rebuild + refresh the
    worker answers a k-SOI and a describe exactly like the rebuilt
    source."""
    engine = SOIEngine(small_city.network, small_city.pois)
    request = SOIRequest(keywords=("food", "shop"), k=10)
    with EngineServer.for_engine(engine, small_city.photos,
                                 workers=1) as server:
        first_name = server.snapshot.name
        top = server.run([request])[0]
        requests = [request,
                    DescribeRequest(street_id=top[0].street_id, k=5)]
        before = server.run(requests)
        engine.rebuild_indexes()
        with pytest.raises(StaleSnapshotError):
            server.submit(request)
        server.refresh()
        assert server.snapshot.name != first_name
        after = server.run(requests)
        assert after == [serve_request(engine, small_city.photos, r)
                         for r in requests]
        assert after == before  # rebuild of the same data: identical answers
        second_name = server.snapshot.name
    # close() unlinks the stale block and the live one.
    assert not shm_exists(first_name) and not shm_exists(second_name)


def test_worker_crash_raises_and_unlinks(small_engine):
    server = EngineServer.for_engine(small_engine, workers=1)
    name = server.snapshot.name
    try:
        worker = server._workers[0]
        pid = worker.pid
        os.kill(pid, signal.SIGKILL)
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        server.submit(SOIRequest(keywords=("food",), k=5))
        with pytest.raises(WorkerCrashError) as excinfo:
            server.next_result(timeout=30.0)
        # The crash report names the worker and the unaccounted request.
        message = str(excinfo.value)
        assert f"pid {pid}" in message
        assert "last completed request" in message
        assert "request id(s): [0]" in message
    finally:
        server.close()
    assert not shm_exists(name)


def test_crash_message_reports_last_completed_request(small_engine):
    server = EngineServer.for_engine(small_engine, workers=1)
    try:
        request = SOIRequest(keywords=("food",), k=5)
        server.submit(request)
        server.next_result(timeout=30.0)
        worker = server._workers[0]
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=10.0)
        server.submit(request)
        with pytest.raises(WorkerCrashError) as excinfo:
            server.next_result(timeout=30.0)
        assert "last completed request 0" in str(excinfo.value)
    finally:
        server.close()


def test_server_aggregates_worker_metrics(small_engine):
    requests = [SOIRequest(keywords=("food",), k=5),
                SOIRequest(keywords=("shop",), k=5),
                SOIRequest(keywords=("food", "shop"), k=5)]
    with EngineServer.for_engine(small_engine, workers=2) as server:
        server.run(requests)
        merged = server.metrics()
        dump = server.metrics_dict()
    assert merged.counter("serve.requests") == len(requests)
    assert merged.counter("soi.queries") == len(requests)
    hist = merged.histogram("serve.request_s")
    assert hist is not None and hist.count == len(requests)
    assert dump["counters"]["serve.requests"] == len(requests)


def test_micro_batching_is_payload_identical(small_engine):
    """Batched workers group same-signature requests onto one session;
    the payloads must not change by a single bit."""
    requests = [SOIRequest(keywords=("food",), k=5),
                SOIRequest(keywords=("shop",), k=5),
                SOIRequest(keywords=("food",), k=10),
                SOIRequest(keywords=("food",), k=5),
                SOIRequest(keywords=("shop",), k=3),
                SOIRequest(keywords=("food", "shop"), k=5)]
    expected = [serve_request(small_engine, None, request)
                for request in requests]
    with EngineServer.for_engine(small_engine, workers=1,
                                 micro_batch=4) as server:
        assert server.micro_batch == 4
        payloads = server.run(requests)
        merged = server.metrics()
    assert payloads == expected
    # With one worker the drain loop must have batched at least once
    # (six requests, batch cap four => at least two loop turns).
    assert 2 <= merged.counter("serve.batches") <= len(requests)
    hist = merged.histogram("serve.batch_size")
    assert hist is not None and hist.sum == len(requests)


def test_micro_batch_validation():
    # The guard fires before the snapshot is touched or workers spawn.
    with pytest.raises(ValueError):
        EngineServer(None, workers=1, micro_batch=0)
