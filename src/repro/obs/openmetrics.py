"""OpenMetrics / Prometheus text exposition for the metrics registry.

:func:`registry_to_openmetrics` renders a :class:`~repro.obs.metrics.
MetricsRegistry` (or one of its ``to_dict()`` dumps) as the OpenMetrics
text format a Prometheus scraper ingests:

* counters become ``<name>_total`` samples of type ``counter``;
* gauges become plain samples of type ``gauge``;
* log2-bucket histograms become cumulative ``<name>_bucket{le="..."}``
  series (upper edges are the exact ``2**e`` bucket bounds) plus the
  ``_sum``/``_count`` pair, type ``histogram``;
* quantile sketches become ``summary`` series with
  ``{quantile="0.5|0.9|0.99"}`` labels plus ``_sum``/``_count``.

The output is **stable**: metric names are sanitised deterministically
(dots and dashes to underscores, ``repro_`` prefix), every family and
every sample is emitted in sorted order, floats render via ``repr``
(shortest round-trip), and — matching the repo's determinism convention
— **no timestamps** are written.  Rendering the same registry twice
yields byte-identical text, so an exposition file can be committed or
diffed like any other report.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from repro.obs.metrics import MetricsRegistry, bucket_bounds

SUMMARY_QUANTILES = (0.5, 0.9, 0.99)
"""Quantiles exposed for each sketch (p50/p90/p99, the serve headline)."""

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str) -> str:
    """Sanitised OpenMetrics metric name for a registry key.

    ``serve.request_s`` becomes ``repro_serve_request_s``; any character
    outside the legal set collapses to ``_``.  The ``repro_`` prefix
    namespaces the exposition against other jobs on the same scraper.
    """
    flat = _INVALID_CHARS.sub("_", name)
    if not flat.startswith("repro_"):
        flat = "repro_" + flat
    if not _NAME_OK.match(flat):  # pragma: no cover - prefix guarantees it
        flat = "repro_invalid"
    return flat


def _render_value(value: float) -> str:
    """Canonical sample value: shortest round-trip repr, ints unpadded."""
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:  # repro-lint: disable=REP-N201 (exact integral check for canonical rendering)
        return str(int(value))
    return repr(value)


def registry_to_openmetrics(registry: "MetricsRegistry | dict") -> str:
    """The full registry as OpenMetrics text (see module docstring)."""
    dump = (registry.to_dict() if isinstance(registry, MetricsRegistry)
            else registry)
    lines: list[str] = []
    for name, value in sorted(dump.get("counters", {}).items()):
        flat = metric_name(name)
        lines.append(f"# TYPE {flat} counter")
        lines.append(f"{flat}_total {_render_value(value)}")
    for name, value in sorted(dump.get("gauges", {}).items()):
        flat = metric_name(name)
        lines.append(f"# TYPE {flat} gauge")
        lines.append(f"{flat} {_render_value(value)}")
    for name, hist in sorted(dump.get("histograms", {}).items()):
        flat = metric_name(name)
        lines.append(f"# TYPE {flat} histogram")
        cumulative = 0
        for exp in sorted(int(e) for e in hist.get("buckets", {})):
            cumulative += int(hist["buckets"][str(exp)])
            upper = bucket_bounds(exp)[1]
            lines.append(f'{flat}_bucket{{le="{_render_value(upper)}"}} '
                         f"{cumulative}")
        lines.append(f'{flat}_bucket{{le="+Inf"}} '
                     f"{int(hist.get('count', 0))}")
        lines.append(f"{flat}_sum {_render_value(hist.get('sum', 0.0))}")
        lines.append(f"{flat}_count {int(hist.get('count', 0))}")
    for name, sketch in sorted(dump.get("sketches", {}).items()):
        flat = metric_name(name)
        lines.append(f"# TYPE {flat} summary")
        for q in SUMMARY_QUANTILES:
            value = _sketch_quantile(sketch, q)
            lines.append(f'{flat}{{quantile="{_render_value(q)}"}} '
                         f"{_render_value(value)}")
        lines.append(f"{flat}_sum {_render_value(sketch.get('sum', 0.0))}")
        lines.append(f"{flat}_count {int(sketch.get('count', 0))}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def _sketch_quantile(dump: dict, q: float) -> float:
    """Nearest-rank quantile straight off a sketch dump (no rebuild)."""
    count = int(dump.get("count", 0))
    if count == 0:
        return 0.0
    rank = max(1, min(count, math.ceil(q * count)))
    cumulative = 0
    value = 0.0
    for exp in sorted(int(e) for e in dump.get("buckets", {})):
        bucket = dump["buckets"][str(exp)]
        cumulative += int(bucket.get("count", 0))
        value = float(bucket.get("max", 0.0))
        if cumulative >= rank:
            return value
    return value


def write_openmetrics(path: "str | Path",
                      registry: "MetricsRegistry | dict") -> Path:
    path = Path(path)
    path.write_text(registry_to_openmetrics(registry), encoding="utf-8")
    return path


__all__ = [
    "SUMMARY_QUANTILES",
    "metric_name",
    "registry_to_openmetrics",
    "write_openmetrics",
]
