"""Driving one EngineServer: set-up, the closed-loop client, the check.

Shared by the untraced timed phase (``run.py``) and the traced run
(``layers.py``).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import os
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

CITY = "london"
WORKERS = 1
WINDOW = 4
"""Requests in flight: ``EngineServer``'s default window for one worker."""
MICRO_BATCH = 8
REQUEST_TIMEOUT_S = 60.0


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def pss_mb(pid: int) -> float:
    """Proportional set size of one process, from ``smaps_rollup``."""
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no Pss line for pid {pid}")


def start_server(city):
    """Build, export and start one server; answer the readiness request.

    Returns the server, its source engine and the three set-up phases.
    """
    from repro.core.soi import DEFAULT_EPS, SOIEngine
    from repro.serve.server import EngineServer
    from repro.serve.snapshot import IndexSnapshot
    from streams import READINESS_REQUEST

    t0 = time.perf_counter()
    engine = SOIEngine(city.network, city.pois)
    t1 = time.perf_counter()
    snapshot = IndexSnapshot.export(engine, city.photos,
                                    warm_eps=(DEFAULT_EPS,))
    t2 = time.perf_counter()
    server = EngineServer(snapshot, workers=WORKERS, source=engine,
                          source_photos=city.photos,
                          micro_batch=MICRO_BATCH, cache=True)
    try:
        server.submit(READINESS_REQUEST)
        server.next_result(timeout=REQUEST_TIMEOUT_S)
    except BaseException:
        server.close()
        raise
    t3 = time.perf_counter()
    phases = {"build_s": t1 - t0, "export_s": t2 - t1,
              "worker_ready_s": t3 - t2, "setup_s": t3 - t0}
    return server, engine, phases


@dataclasses.dataclass
class Served:
    """What one timed phase produced, indexed by stream position."""

    requests: list
    payloads: dict
    latency_s: dict
    service_s: dict
    submit_s: dict
    wall_s: float


@dataclasses.dataclass
class Pass:
    """One timed pass: a freshly set-up server serves the whole stream."""

    setup: dict
    """The set-up phases of :func:`start_server`."""
    served: Served
    """The timed phase.  Once the pass ends its payloads are replaced by
    their :func:`digest` values, so that later passes do not hold
    earlier payloads while their memory is read."""
    mem_mb: dict
    """PSS of the ``parent`` and the ``worker`` after the stream."""
    cache: dict
    """``cache_stats()`` after the stream."""
    batch_size_mean: float


def run_passes(city, make_stream, seconds: float, min_passes: int):
    """Serve one stream in passes, each on a fresh server.

    Passes start while less than ``seconds`` have gone by since the
    first began, and at least ``min_passes`` run.  Each pass does the
    same work, so a faster program makes more passes, not different
    ones; a slow host makes fewer, which bounds a run's time.

    Every pass sets a server up (``SOIEngine``, snapshot export, worker
    start and the readiness answer), serves the stream and stops the
    server, so each pass starts with a new worker, an empty result cache
    and no sessions: no pass is served from state an earlier pass left.
    ``make_stream(engine)`` builds the stream from the first pass's
    source engine, after its set-up and before anything is timed.
    Returns the passes, the stream and the last pass's source engine.
    """
    done: list[Pass] = []
    stream = server = engine = None
    started = time.perf_counter()
    while (len(done) < min_passes
           or time.perf_counter() - started < seconds):
        # The stopped server still refers to its source engine: drop both
        # before the next build, or the parent's heap grows by one engine.
        server = engine = None
        gc.collect()
        server, engine, setup = start_server(city)
        try:
            if stream is None:
                stream = make_stream(engine)
            served = serve_stream(server, stream)
            worker = server.worker_health()[0]
            mem = {"parent": pss_mb(os.getpid()),
                   "worker": (pss_mb(worker["pid"]) if worker["alive"]
                              else 0.0)}
            cache = server.cache_stats()
            batch = server.metrics().histogram("serve.batch_size")
        finally:
            server.close()
        served = dataclasses.replace(served, payloads={
            pos: digest(payload) for pos, payload in served.payloads.items()})
        done.append(Pass(setup, served, mem, cache,
                         (batch.sum / batch.count) if batch else 0.0))
    return done, stream, engine


def serve_stream(server, stream: list, spans=None) -> Served:
    """Closed-loop client: keep :data:`WINDOW` requests in flight.

    Serves the whole stream.  A request is timed from just before
    ``submit()`` until ``next_result()`` hands its payload back.  A
    request the worker answers with an error stays unanswered; if the
    worker dies or stops answering, the client stops and every
    unanswered request counts as failed.  With ``spans`` (a
    ``layers.SpanLog``) each request gets a ``serve.request`` span with
    ``serve.submit`` and ``serve.next_result`` children.

    The objects this process holds before the stream (the city, the
    source engine, the set-up) are frozen out of the garbage collector
    while it runs: on london a full collection that rescans them pauses
    the parent for 125-165 ms on a 2-core VM and stalls every request in
    flight.
    """
    gc.collect()
    gc.freeze()
    try:
        return _serve_stream(server, stream, spans)
    finally:
        gc.unfreeze()


def _serve_stream(server, stream: list, spans) -> Served:
    from repro.errors import ReproError, WorkerCrashError

    clock = time.perf_counter
    position_of: dict[int, int] = {}
    started: dict[int, float] = {}
    payloads: dict[int, object] = {}
    latency: dict[int, float] = {}
    service: dict[int, float] = {}
    submit: dict[int, float] = {}
    sent = 0
    t_first = clock()
    t_last = t_first
    while True:
        while sent < len(stream) and server.inflight < WINDOW:
            t0 = clock()
            seq = server.submit(stream[sent])
            submit[sent] = clock() - t0
            position_of[seq] = sent
            started[seq] = t0
            sent += 1
        if server.inflight == 0:
            break
        t_wait = clock()
        try:
            seq, payload, service_s = server.next_result(
                timeout=REQUEST_TIMEOUT_S)
        except (WorkerCrashError, TimeoutError):
            break
        except ReproError:
            continue
        t_last = clock()
        pos = position_of[seq]
        payloads[pos] = payload
        latency[pos] = t_last - started[seq]
        service[pos] = service_s
        if spans is not None:
            request_id = f"served-{pos}"
            parent = spans.add(request_id, "serve.request", started[seq],
                               t_last)
            spans.add(request_id, "serve.submit", started[seq],
                      started[seq] + submit[pos], parent)
            spans.add(request_id, "serve.next_result",
                      max(t_wait, started[seq]), t_last, parent)
    return Served(stream[:sent], payloads, latency, service, submit,
                  t_last - t_first)


def canonical(payload) -> list:
    """A payload with every float as its exact hex form."""
    out = []
    for item in payload:
        if dataclasses.is_dataclass(item):
            out.append(tuple(value.hex() if isinstance(value, float) else value
                             for value in dataclasses.astuple(item)))
        else:
            out.append(item)
    return out


def digest(payload) -> str:
    """The SHA-256 of a payload's :func:`canonical` form: equal digests
    mean bit-identical payloads."""
    return hashlib.sha256(repr(canonical(payload)).encode()).hexdigest()


def reference_digests(engine, photos, requests) -> dict:
    """Digests of the uncached ``serve_request`` answers, one per request.

    Requests are served in signature order, so the engine's sessions and
    a describer LRU are reused; neither changes a payload.
    """
    from repro.serve.server import _group_key, serve_request

    describers: OrderedDict = OrderedDict()
    return {request: digest(serve_request(engine, photos, request,
                                          describers))
            for request in sorted(requests,
                                  key=lambda r: (_group_key(r), repr(r)))}


_HELPER_SOURCE: tuple | None = None
"""The reference helper process's own source engine and photos."""


def _helper_init(scale: float) -> None:
    global _HELPER_SOURCE
    from repro.core.soi import SOIEngine
    from repro.datagen.presets import build_preset

    city = build_preset(CITY, scale)
    _HELPER_SOURCE = (SOIEngine(city.network, city.pois), city.photos)


def _helper_references(requests: list) -> dict:
    return reference_digests(*_HELPER_SOURCE, requests)


def reference_helper(scale: float) -> ProcessPoolExecutor:
    """A one-process pool that computes half of the references.

    It builds its own engine from the same generated city, while the
    parent generates its copy; callers wait for it to be ready before
    anything is timed, and it stays blocked until the check.  On london
    and a 2-core VM it cuts the longest check, ``soi_paging``'s, from
    23 s in one process to 12 s.
    """
    return ProcessPoolExecutor(1, mp_context=get_context("spawn"),
                               initializer=_helper_init, initargs=(scale,))


def check_payloads(engine, photos, runs,
                   helper: ProcessPoolExecutor) -> int:
    """Mismatches against the uncached in-process answers.

    ``runs`` holds ``(requests, payload digests by position)`` pairs
    (see :func:`digest`).  There is
    one reference per distinct request.  The requests are grouped by
    signature (or street) and the groups dealt out in turn, so each
    process warms the sessions of its own groups only; ``helper``
    computes every second group while this process computes the rest.
    """
    from repro.serve.server import _group_key

    groups: dict = {}
    for request in {request for requests, _ in runs for request in requests}:
        groups.setdefault(_group_key(request), []).append(request)
    dealt = [groups[key] for key in sorted(groups)]
    helped = helper.submit(_helper_references,
                           [request for group in dealt[1::2]
                            for request in group])
    reference = reference_digests(
        engine, photos, [request for group in dealt[0::2]
                         for request in group])
    reference.update(helped.result())
    return sum(1 for requests, payloads in runs
               for pos, payload in payloads.items()
               if payload != reference[requests[pos]])
