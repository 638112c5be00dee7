"""repro.obs — span tracing, metrics registry, exporters, slow-query log.

The observability layer for the SOI/describe/serve stack.  Everything in
here is stdlib-only and imports nothing from the rest of ``repro``, so
any module (including ``core``) can depend on it without cycles.

* :mod:`repro.obs.tracer` — ``trace_span`` + the global ring-buffer
  :data:`~repro.obs.tracer.TRACER`; off unless ``REPRO_TRACE=1``.
* :mod:`repro.obs.metrics` — the always-on process-local
  :data:`~repro.obs.metrics.REGISTRY` of counters/gauges/histograms.
* :mod:`repro.obs.export` — span-tree assembly, JSON-lines and Chrome
  ``chrome://tracing`` exporters, cross-process serve-trace stitching.
* :mod:`repro.obs.openmetrics` — OpenMetrics/Prometheus text exposition
  of the registry (``repro metrics --openmetrics``).
* :mod:`repro.obs.slowlog` — the global :data:`~repro.obs.slowlog.SLOWLOG`
  capturing span trees of queries over ``REPRO_SLOWLOG`` seconds.
"""

from repro.obs.export import (
    build_tree,
    roots,
    self_time_by_name,
    self_times_ns,
    spans_to_chrome,
    spans_to_jsonl,
    stitch_serve_requests,
    validate_serve_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    QuantileSketch,
    REGISTRY,
    bucket_bounds,
    bucket_exponent,
    record_describe_query,
    record_serve_request,
    record_soi_query,
)
from repro.obs.openmetrics import registry_to_openmetrics, write_openmetrics
from repro.obs.slowlog import SLOWLOG, SlowQueryLog
from repro.obs.tracer import (
    DROPPED_SPANS_METRIC,
    SPAN_NAMES,
    SpanRecord,
    TRACER,
    Tracer,
    current_trace_id,
    enable_tracing,
    mint_trace_id,
    monotonic_now,
    perf_now,
    trace_context,
    trace_span,
    tracing_enabled,
    tracing_scope,
)

__all__ = [
    "DROPPED_SPANS_METRIC",
    "Histogram",
    "MetricsRegistry",
    "QuantileSketch",
    "REGISTRY",
    "SLOWLOG",
    "SPAN_NAMES",
    "SlowQueryLog",
    "SpanRecord",
    "TRACER",
    "Tracer",
    "bucket_bounds",
    "bucket_exponent",
    "build_tree",
    "current_trace_id",
    "enable_tracing",
    "mint_trace_id",
    "monotonic_now",
    "perf_now",
    "record_describe_query",
    "record_serve_request",
    "record_soi_query",
    "registry_to_openmetrics",
    "roots",
    "self_time_by_name",
    "self_times_ns",
    "spans_to_chrome",
    "spans_to_jsonl",
    "stitch_serve_requests",
    "trace_context",
    "trace_span",
    "tracing_enabled",
    "tracing_scope",
    "validate_serve_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_openmetrics",
]
