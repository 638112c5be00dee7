"""EngineServer: multiprocess serving smoke, staleness, crash cleanup.

These tests spawn real worker processes (``spawn`` context), so each one
keeps its pool small and its workload short; the two-worker smoke test is
the tier-1 guard that the scale-out path actually serves mixed queries.
"""

from __future__ import annotations

import os
import re
import signal
import threading
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


def test_metrics_dump_ships_once_per_drained_batch(small_engine):
    """Only the last result of a drained batch carries the worker's
    metrics dump, taken after every record of that batch, so the merged
    metrics still count every collected request."""
    requests = paging_requests(16)
    with EngineServer.for_engine(small_engine, workers=1,
                                 micro_batch=8) as server:
        dumps: list[bool] = []
        accept = server._accept

        def accept_counting_dumps(result):
            dumps.append(result[5] is not None)
            return accept(result)

        server._accept = accept_counting_dumps
        for request in requests:
            server.submit(request)
        for _ in requests:
            server.next_result(timeout=30.0)
        merged = server.metrics()
    assert len(dumps) == len(requests)
    assert sum(dumps) < len(requests)
    assert dumps[-1]
    assert merged.counter("serve.requests") == len(requests)


def test_micro_batch_validation(small_engine):
    # The guard fires before the snapshot is touched or workers spawn.
    with pytest.raises(ValueError):
        EngineServer(None, workers=1, micro_batch=0)
    # for_engine exports its snapshot first, and unlinks it when the
    # guard rejects the arguments.
    for bad in ({"workers": 0}, {"micro_batch": 0}):
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(ValueError):
            EngineServer.for_engine(small_engine, **bad)
        assert set(os.listdir("/dev/shm")) <= before, bad


def paging_requests(count: int) -> list:
    """``count`` k-SOI requests over three signatures and many ``k``."""
    signatures = (("food",), ("shop",), ("food", "shop"))
    return [SOIRequest(keywords=signatures[i % 3], k=1 + (i // 3) % 40)
            for i in range(count)]


def test_submit_all_before_collecting_completes(small_engine):
    """Back-pressure: 2,000 tasks submitted before any result is read.

    Written tasks stay within what the task pipe holds and the rest wait
    in the parent's backlog, so submit() never blocks on a full task
    pipe while the worker blocks on a full result pipe."""
    requests = paging_requests(2000)
    expected = {request: serve_request(small_engine, None, request)
                for request in set(requests)}
    with EngineServer.for_engine(small_engine, workers=1) as server:
        seqs = [server.submit(request) for request in requests]
        payloads = {}
        for _ in requests:
            seq, payload, _service = server.next_result(timeout=60.0)
            payloads[seq] = payload
    assert [payloads[seq] for seq in seqs] == [expected[request]
                                               for request in requests]


def test_workers_share_both_pipes_without_loss_or_duplication(
        small_engine):
    """Three workers, more than a 2-core host has cores, take tasks from
    one task pipe and write to one result pipe under its locks: every
    task is answered exactly once, with its own payload."""
    requests = paging_requests(600)
    expected = {request: serve_request(small_engine, None, request)
                for request in set(requests)}
    with EngineServer.for_engine(small_engine, workers=3,
                                 micro_batch=4) as server:
        deadline = time.monotonic() + 30.0
        while any(worker["state"] == "starting"
                  for worker in server.worker_health()):
            assert time.monotonic() < deadline, server.worker_health()
            time.sleep(0.05)
        seqs = [server.submit(request) for request in requests]
        payloads = {}
        for _ in requests:
            seq, payload, _service = server.next_result(timeout=60.0)
            assert seq not in payloads
            payloads[seq] = payload
    assert [payloads[seq] for seq in seqs] == [expected[request]
                                               for request in requests]


def test_close_drains_a_full_result_pipe(small_engine):
    """A worker blocked on a full result pipe is stalled, not crashed,
    and close() reads it free instead of waiting out its timeout."""
    request = SOIRequest(keywords=("food",), k=5)
    server = EngineServer.for_engine(small_engine, workers=1)
    name = server.snapshot.name
    try:
        server.submit(request)
        server.next_result(timeout=30.0)  # the worker is attached
        for _ in range(500):
            server.submit(request)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            health = server.worker_health(stall_after_s=0.5)[0]
            if health["state"] == "busy" and health["status"] == "stalled":
                break
            time.sleep(0.05)
        else:
            pytest.fail(f"the worker never blocked on its results: {health}")
        assert server.telemetry()["queue_depth"] == server.inflight == 500
        started = time.perf_counter()
    finally:
        server.close(timeout=20.0)
    assert time.perf_counter() - started < 10.0
    assert not shm_exists(name)


def test_no_feeder_thread_while_a_request_is_in_flight(small_engine):
    with EngineServer.for_engine(small_engine, workers=1) as server:
        server.submit(SOIRequest(keywords=("food",), k=5))
        threads = [thread.name for thread in threading.enumerate()]
        server.next_result(timeout=30.0)
    assert "QueueFeederThread" not in threads


def test_worker_crash_inside_a_micro_batch_accounts_every_request(
        small_engine):
    """SIGKILL a worker inside a micro-batch: every sequence number comes
    back exactly once, as a payload or as unaccounted in the crash."""
    requests = paging_requests(16)
    expected = [serve_request(small_engine, None, request)
                for request in requests]
    server = EngineServer.for_engine(small_engine, workers=1, micro_batch=8)
    name = server.snapshot.name
    answered: list[int] = []
    unaccounted: list[int] = []
    try:
        seqs = [server.submit(request) for request in requests]
        seq, payload, _service = server.next_result(timeout=30.0)
        assert payload == expected[seq]
        answered.append(seq)
        # Kill once the worker has written a further result, and notice
        # the loss before reading it: the results written before the
        # death are drained into the parent and handed back first.
        assert server._results.reader.poll(30.0)
        worker = server._workers[0]
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        try:
            server._check_workers_alive()
            while server.inflight:
                seq, payload, _service = server.next_result(timeout=30.0)
                assert payload == expected[seq]
                answered.append(seq)
        except WorkerCrashError as exc:
            listed = re.search(r"request id\(s\): \[([0-9, ]*)\]",
                               str(exc))
            assert listed is not None, str(exc)
            unaccounted = [int(s) for s in listed.group(1).split(",")]
    finally:
        server.close()
    assert len(answered) >= 2
    assert sorted(answered + unaccounted) == seqs
    assert not shm_exists(name)
