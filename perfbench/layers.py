"""Per-layer time budget of the serve path: the traced run (``--trace 1``).

The traced run follows one untraced pass of the same seed:

* **Served split.**  A fresh server serves the same stream again while
  the client records a span around every ``submit()`` and
  ``next_result()``.  Each request splits into ``submit`` +
  ``wait_transfer`` + ``service``, which equals its turnaround by
  construction; ``service`` is the worker-measured time returned by
  ``next_result()``.
* **Replay.**  The requests that server saw (the readiness request, then
  the served stream) are replayed in this process through the program's
  own ``serve_request_cached`` over a snapshot-attached engine
  (``IndexSnapshot.attach`` + ``attach_engine``/``attach_photo_set``):
  the code a worker runs, minus IPC, micro-batching and coalescing.  Each
  request gets one span; the public layer calls it makes (result-cache
  lookup/store, session resolution, ``top_k_with_stats``, the
  ε-augmentation and store layout, the street-profile and describer
  builds, ``select_with_stats``) are wrapped for the replay only, so each
  gets a child span.  Request time no child covers is reported as
  ``trace.unattributed_share``.  A describe probe (``k=1``, which no
  workload draws, on the readiness answer's top street) runs with its own
  cache, so the describe layer has a timed call on every workload.

Spans are kept in memory as :class:`repro.obs.tracer.SpanRecord` objects
(the request id is the ``trace_id``) and written at the end with
:func:`repro.obs.export.write_chrome_trace`, beside the per-layer table.
The program itself is not traced.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import OrderedDict
from pathlib import Path
from unittest import mock

from repro.obs.export import self_times_ns, write_chrome_trace
from repro.obs.tracer import SpanRecord
from serving import percentile, serve_stream, start_server

PER_LAYER_UNITS = {
    "serve.submit_p50_us": "us",
    "serve.submit_p99_us": "us",
    "serve.wait_transfer_p50_ms": "ms",
    "serve.wait_transfer_p99_ms": "ms",
    "serve.service_p50_ms": "ms",
    "serve.service_p99_ms": "ms",
    "serve.local_share": "ratio",
    "perf.result_cache.hit_share": "ratio",
    "perf.result_cache.coalesced_share": "ratio",
    "perf.result_cache.evictions": "count",
    "serve.batch_size_mean": "count",
    "perf.result_cache.kmax_elevations": "count",
    "perf.result_cache.lookup_p50_us": "us",
    "perf.result_cache.store_p50_us": "us",
    "perf.session.resolve_p50_ms": "ms",
    "perf.session.resolve_p99_ms": "ms",
    "perf.session.reuse_share": "ratio",
    "core.soi.executed": "count",
    "core.soi.query_p50_ms": "ms",
    "core.soi.query_p99_ms": "ms",
    "core.soi.build_s": "s",
    "core.soi.filter_s": "s",
    "core.soi.refine_s": "s",
    "core.soi.kernel_calls_per_query": "count",
    "core.describe.executed": "count",
    "core.describe.profile_p50_ms": "ms",
    "core.describe.profile_builds": "count",
    "core.describe.select_p50_ms": "ms",
    "core.describe.select_p99_ms": "ms",
    "core.describe.photos_examined_per_query": "count",
    "index.augment_s": "s",
    "index.eps_built": "count",
    "core.state_store.layout_s": "s",
    "index.build_s": "s",
    "serve.export_s": "s",
    "serve.worker_ready_s": "s",
    "serve.snapshot_mb": "MB",
    "serve.parent_pss_mb": "MB",
    "serve.worker_pss_mb": "MB",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}

SERVED_THREAD, REPLAY_THREAD = 1, 2
"""Chrome-trace tracks of the served split and of the replay."""


class SpanLog:
    """The benchmark's own spans, as :class:`SpanRecord` objects."""

    def __init__(self) -> None:
        self.records: list = []
        self.trace_id: str | None = None
        """Request id given to spans opened with :meth:`span`."""
        self._open: list[int] = []

    def add(self, trace_id: str, name: str, start_s: float, end_s: float,
            parent_id: int = -1) -> int:
        """Record a finished served-split span (``perf_counter`` seconds);
        returns its id."""
        span_id = len(self.records)
        self.records.append(SpanRecord(
            span_id, parent_id, name, int(start_s * 1e9), int(end_s * 1e9),
            SERVED_THREAD, trace_id=trace_id))
        return span_id

    @contextlib.contextmanager
    def span(self, name: str):
        """A replay span under the innermost open one."""
        span_id = len(self.records)
        parent_id = self._open[-1] if self._open else -1
        self.records.append(None)
        self._open.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.records[span_id] = SpanRecord(
                span_id, parent_id, name, start, end, REPLAY_THREAD,
                trace_id=self.trace_id)

    def timed(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a :meth:`span`; ``on_result`` sees its value."""
        def call(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out
        return call

    def durations(self, name: str) -> list[float]:
        return [span.duration_s for span in self.records if span.name == name]

    def summed_per_request(self, names: tuple[str, ...]) -> list[float]:
        """Per request, the summed duration of its spans named ``names``."""
        sums: dict[str, float] = {}
        for span in self.records:
            if span.name in names:
                sums[span.trace_id] = (sums.get(span.trace_id, 0.0)
                                       + span.duration_s)
        return list(sums.values())


def _p(values, q: float) -> float:
    return percentile(values, q) if values else 0.0


def _timed_cache(spans: SpanLog):
    """A :class:`ResultCache` whose ``lookup``/``store`` get spans."""
    from repro.perf.result_cache import ResultCache

    class TimedCache(ResultCache):
        def lookup(self, *args, **kwargs):
            with spans.span("perf.result_cache.lookup"):
                return super().lookup(*args, **kwargs)

        def store(self, *args, **kwargs):
            with spans.span("perf.result_cache.store"):
                return super().store(*args, **kwargs)

    return TimedCache()


@contextlib.contextmanager
def _timed_layers(view, spans: SpanLog, soi_stats: list, describe_stats: list):
    """Wrap the layer calls ``serve_request_cached`` makes over ``view``.

    The engine-side wrappers are attributes of this one attached view;
    the describe builders and ``select_with_stats`` are patched in the
    program's modules until the block ends.
    """
    import repro.serve.server as server_module
    from repro.core.describe import STRelDivDescriber

    def keep_stats(into: list):
        return lambda out: into.append(out[1])

    patches = [
        (view.sessions, "get", "perf.session.resolve", None),
        (view, "top_k_with_stats", "core.soi.query", keep_stats(soi_stats)),
        (view.cell_maps, "augmented_cell_counts_column", "index.augment",
         None),
        (view, "store_layout", "core.state_store.layout", None),
        (server_module, "build_street_profile", "core.describe.profile",
         None),
        (server_module, "STRelDivDescriber", "core.describe.describer",
         None),
        (STRelDivDescriber, "select_with_stats", "core.describe.select",
         keep_stats(describe_stats)),
    ]
    with contextlib.ExitStack() as stack:
        for target, attribute, name, on_result in patches:
            stack.enter_context(mock.patch.object(
                target, attribute,
                spans.timed(name, getattr(target, attribute), on_result)))
        yield


def replay(engine, photos, requests: list,
           spans: SpanLog) -> tuple[list, dict]:
    """Replay ``requests`` over a snapshot-attached copy of ``engine``.

    Returns the payloads of ``requests[1:]`` (the served stream; the
    first request is the readiness request) and the replay's layer
    figures.
    """
    from repro.core.soi import DEFAULT_EPS
    from repro.obs.metrics import REGISTRY
    from repro.serve.server import DescribeRequest, serve_request_cached
    from repro.serve.snapshot import IndexSnapshot
    from repro.serve.views import attach_engine, attach_photo_set

    exported = IndexSnapshot.export(engine, photos, warm_eps=(DEFAULT_EPS,))
    attached = IndexSnapshot.attach(exported.name)
    soi: list = []
    describe: list = []
    try:
        view = attach_engine(attached)
        view_photos = attach_photo_set(attached)

        def serve(request_id: str, request, cache, describers):
            spans.trace_id = request_id
            with spans.span("request"):
                return serve_request_cached(view, view_photos, request,
                                            cache, describers)

        cache, describers = _timed_cache(spans), OrderedDict()
        builds_before = REGISTRY.counters_with_prefix("index.augment.build.")
        with _timed_layers(view, spans, soi, describe):
            readiness = serve("replay-readiness", requests[0], cache,
                              describers)
            serve("replay-describe-probe",
                  DescribeRequest(street_id=readiness[0].street_id
                                  if readiness else 0, k=1),
                  _timed_cache(spans), OrderedDict())
            payloads = [serve(f"replay-{pos}", request, cache, describers)
                        for pos, request in enumerate(requests[1:])]
        builds_after = REGISTRY.counters_with_prefix("index.augment.build.")
        del view, view_photos, cache, describers
    finally:
        attached.close()
        exported.close()
    figures = {
        "perf.result_cache.lookup_p50_us":
            1e6 * _p(spans.durations("perf.result_cache.lookup"), 0.5),
        "perf.result_cache.store_p50_us":
            1e6 * _p(spans.durations("perf.result_cache.store"), 0.5),
        "perf.session.resolve_p50_ms":
            1e3 * _p(spans.durations("perf.session.resolve"), 0.5),
        "perf.session.resolve_p99_ms":
            1e3 * _p(spans.durations("perf.session.resolve"), 0.99),
        "core.soi.query_p50_ms":
            1e3 * _p(spans.durations("core.soi.query"), 0.5),
        "core.soi.query_p99_ms":
            1e3 * _p(spans.durations("core.soi.query"), 0.99),
        "core.soi.build_s": sum(s.phase_seconds["build"] for s in soi),
        "core.soi.filter_s": sum(s.phase_seconds["filter"] for s in soi),
        "core.soi.refine_s": sum(s.phase_seconds["refine"] for s in soi),
        "core.soi.kernel_calls_per_query":
            sum(s.kernel_calls for s in soi) / max(1, len(soi)),
        "core.describe.profile_p50_ms": 1e3 * _p(spans.summed_per_request(
            ("core.describe.profile", "core.describe.describer")), 0.5),
        "core.describe.profile_builds":
            len(spans.durations("core.describe.profile")),
        "core.describe.select_p50_ms":
            1e3 * _p(spans.durations("core.describe.select"), 0.5),
        "core.describe.select_p99_ms":
            1e3 * _p(spans.durations("core.describe.select"), 0.99),
        "core.describe.photos_examined_per_query":
            sum(s.photos_examined for s in describe) / max(1, len(describe)),
        "index.augment_s": sum(spans.durations("index.augment")),
        "index.eps_built": sum(builds_after.values())
            - sum(builds_before.values()),
        "core.state_store.layout_s":
            sum(spans.durations("core.state_store.layout")),
    }
    return payloads, figures


def unattributed_share(spans: SpanLog) -> float:
    """Replay request time not covered by a child span, over all of it."""
    requests = [span for span in spans.records
                if span.thread_id == REPLAY_THREAD and span.parent_id == -1]
    total = sum(span.duration_ns for span in requests)
    selfs = self_times_ns(spans.records)
    return (sum(selfs[span.span_id] for span in requests) / total
            if total > 0 else 0.0)


def served_split(served) -> dict:
    """Submit / wait-transfer / service percentiles of a served phase.

    Waiting and service are taken over worker-answered requests (a
    request answered in the parent reports zero service time).
    """
    submit = list(served.submit_s.values())
    worker = [pos for pos, service in served.service_s.items() if service > 0]
    service = [served.service_s[pos] for pos in worker]
    wait = [served.latency_s[pos] - served.submit_s[pos]
            - served.service_s[pos] for pos in worker]
    return {
        "serve.submit_p50_us": 1e6 * _p(submit, 0.5),
        "serve.submit_p99_us": 1e6 * _p(submit, 0.99),
        "serve.wait_transfer_p50_ms": 1e3 * _p(wait, 0.5),
        "serve.wait_transfer_p99_ms": 1e3 * _p(wait, 0.99),
        "serve.service_p50_ms": 1e3 * _p(service, 0.5),
        "serve.service_p99_ms": 1e3 * _p(service, 0.99),
        "serve.local_share": 1.0 - len(worker) / len(served.requests),
    }


def _counter_delta(after, before, name: str) -> int:
    return after.counter(name) - before.counter(name)


def traced_run(city, stream: list, untraced, out_path: Path, log=print):
    """Served split plus replay; returns ``(metrics, served, replayed)``.

    ``untraced`` is the untraced pass of the same run (a
    :class:`serving.Pass`): its set-up phases and PSS readings are
    reported here, and its throughput gives the tracing overhead.
    Writes ``<out_path>.trace.json`` and ``<out_path>.layers.json``.
    """
    from streams import READINESS_REQUEST

    spans = SpanLog()
    server, engine, _phases = start_server(city)
    try:
        before = server.metrics()
        snapshot_mb = server.snapshot.nbytes / 2**20
        served = serve_stream(server, stream, spans=spans)
        after = server.metrics()
        cache = server.cache_stats()
    finally:
        server.close()
    attempted = len(stream)
    soi_queries = _counter_delta(after, before, "soi.queries")
    batch = after.histogram("serve.batch_size")
    figures = served_split(served)
    figures.update({
        "perf.result_cache.hit_share": cache["hit_rate"],
        "perf.result_cache.coalesced_share":
            cache["coalesced_waiters"] / attempted,
        "perf.result_cache.evictions": cache["evictions"],
        "serve.batch_size_mean": batch.sum / batch.count if batch else 0.0,
        "perf.result_cache.kmax_elevations": cache["kmax_elevations"],
        "perf.session.reuse_share":
            _counter_delta(after, before, "soi.session_reused")
            / max(1, soi_queries),
        "core.soi.executed": soi_queries,
        "core.describe.executed":
            _counter_delta(after, before, "describe.queries"),
        "index.build_s": untraced.setup["build_s"],
        "serve.export_s": untraced.setup["export_s"],
        "serve.worker_ready_s": untraced.setup["worker_ready_s"],
        "serve.snapshot_mb": snapshot_mb,
        "serve.parent_pss_mb": untraced.mem_mb["parent"],
        "serve.worker_pss_mb": untraced.mem_mb["worker"],
        "trace.overhead_ratio":
            (len(untraced.served.latency_s) / untraced.served.wall_s)
            / (len(served.latency_s) / served.wall_s),
    })
    replayed, replay_figures = replay(
        engine, city.photos, [READINESS_REQUEST] + served.requests, spans)
    figures.update(replay_figures)
    figures["trace.unattributed_share"] = unattributed_share(spans)
    metrics = {name: {"value": figures[name], "unit": unit}
               for name, unit in PER_LAYER_UNITS.items()}
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(out_path.with_name(out_path.name + ".trace.json"),
                       spans.records)
    out_path.with_name(out_path.name + ".layers.json").write_text(
        json.dumps(metrics, indent=1))
    width = max(map(len, metrics))
    for name, metric in metrics.items():
        log(f"perfbench layer {name:<{width}} {metric['value']:>14.6g} "
            f"{metric['unit']}")
    return metrics, served, replayed
