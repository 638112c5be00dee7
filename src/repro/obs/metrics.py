"""Process-local metrics registry: counters, gauges, log-scale histograms.

One :class:`MetricsRegistry` per process (the module-global
:data:`REGISTRY`).  Unlike the tracer it is **always on** — recording a
counter is a dict update under a lock, cheap enough to absorb the
per-query `SOIStats`/`DescribeStats` counter dumps without a switch.

Histograms use fixed logarithmic buckets: bucket ``e`` counts
observations ``v`` with ``2**(e-1) < v <= 2**e`` (exact powers of two land
in their own bucket's upper edge), computed exactly with
:func:`math.frexp` — no float-log rounding at the boundaries.  Bucket
exponents are clamped to ``[MIN_EXP, MAX_EXP]`` so the sparse dict stays
bounded; for second-valued latencies that spans ~1 ns to ~2.2e12 s.

Registries merge **commutatively** (counters add, gauges take the max,
histogram buckets add), so aggregating `EngineServer` worker dumps in the
parent is deterministic regardless of response arrival order.

The registry also *supersedes* the scattered per-query stats objects as
the cross-stack aggregation point: :func:`record_soi_query` /
:func:`record_describe_query` fold a stats object's ``counters()`` view
into namespaced registry counters (``soi.*`` / ``describe.*``) and phase
histograms, while the stats dataclasses remain the per-query return
value.
"""

from __future__ import annotations

import math
import threading

MIN_EXP = -40
MAX_EXP = 41


def bucket_exponent(value: float) -> int:
    """Histogram bucket for ``value``: the smallest ``e`` with ``value <= 2**e``.

    Non-positive values collapse into the bottom bucket.  Exact: uses
    ``math.frexp`` (``value = m * 2**e`` with ``0.5 <= m < 1``), so
    ``2**e`` itself goes to bucket ``e``, ``2**e + ulp`` to ``e + 1``.
    """
    if value <= 0.0:
        return MIN_EXP
    mantissa, exponent = math.frexp(value)
    if mantissa == 0.5:  # repro-lint: disable=REP-N201 (frexp returns exactly 0.5 iff value is a power of two)
        exponent -= 1
    if exponent < MIN_EXP:
        return MIN_EXP
    if exponent > MAX_EXP:
        return MAX_EXP
    return exponent


def bucket_bounds(exponent: int) -> tuple[float, float]:
    """The ``(lower, upper]`` value range of a bucket exponent."""
    return (math.ldexp(1.0, exponent - 1), math.ldexp(1.0, exponent))


class Histogram:
    """Log2-bucketed histogram with exact count and sum."""

    __slots__ = ("count", "sum", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        exp = bucket_exponent(value)
        self.buckets[exp] = self.buckets.get(exp, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {str(exp): n for exp, n in sorted(self.buckets.items())},
        }

    def merge_dict(self, dump: dict) -> None:
        self.count += int(dump.get("count", 0))
        self.sum += float(dump.get("sum", 0.0))
        for exp, n in dump.get("buckets", {}).items():
            exp = int(exp)
            self.buckets[exp] = self.buckets.get(exp, 0) + int(n)


class QuantileSketch:
    """Mergeable streaming quantile sketch over the log2 buckets.

    Per bucket it keeps the observation count, the exact min/max seen,
    and an *exemplar*: the trace id of the slowest observation that
    landed in the bucket.  Quantiles are answered by nearest-rank walk
    over the cumulative bucket counts — the returned value is the
    bucket's observed maximum, so the true order statistic is always
    inside ``[bucket_min(q), quantile(q)]``, a rank error bounded by one
    log2 bucket.  No samples are stored: the sketch is O(#buckets)
    regardless of stream length.

    Merging is **commutative and associative** like the rest of the
    registry: counts and sums add, per-bucket min/max fold with min/max,
    and the exemplar of the larger per-bucket maximum wins (ties broken
    by the lexicographically smaller trace id), so worker dumps merge to
    the same sketch in any arrival order.
    """

    __slots__ = ("count", "sum", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        # exp -> [count, min, max, exemplar trace id or None]
        self.buckets: dict[int, list] = {}

    def observe(self, value: float, exemplar: str | None = None) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        exp = bucket_exponent(value)
        bucket = self.buckets.get(exp)
        if bucket is None:
            self.buckets[exp] = [1, value, value, exemplar]
            return
        bucket[0] += 1
        if value < bucket[1]:
            bucket[1] = value
        if value > bucket[2] or (value == bucket[2]  # repro-lint: disable=REP-N201 (deliberate exact tie-break on the recorded max)
                                 and _exemplar_wins(exemplar, bucket[3])):
            bucket[2] = value
            bucket[3] = exemplar

    # -- quantile queries --------------------------------------------------

    def _bucket_at_rank(self, q: float) -> list | None:
        """The bucket holding the nearest-rank order statistic for ``q``."""
        if self.count == 0:
            return None
        rank = max(1, min(self.count, math.ceil(q * self.count)))
        cumulative = 0
        bucket = None
        for exp in sorted(self.buckets):
            bucket = self.buckets[exp]
            cumulative += bucket[0]
            if cumulative >= rank:
                return bucket
        return bucket  # pragma: no cover - counts always telescope

    def quantile(self, q: float) -> float:
        """Upper estimate of the ``q``-quantile (0..1, nearest rank).

        Returns the observed maximum of the bucket holding the rank: the
        exact order statistic lies in ``[quantile_bounds(q)[0], this]``.
        """
        bucket = self._bucket_at_rank(q)
        return bucket[2] if bucket is not None else 0.0

    def quantile_bounds(self, q: float) -> tuple[float, float]:
        """Observed ``[min, max]`` of the bucket holding the ``q``-rank."""
        bucket = self._bucket_at_rank(q)
        return (bucket[1], bucket[2]) if bucket is not None else (0.0, 0.0)

    def exemplar(self, q: float) -> str | None:
        """Trace id of the slowest observation in the ``q``-rank bucket."""
        bucket = self._bucket_at_rank(q)
        return bucket[3] if bucket is not None else None

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    # -- serialisation / merge ---------------------------------------------

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {
                str(exp): {"count": bucket[0], "min": bucket[1],
                           "max": bucket[2], "exemplar": bucket[3]}
                for exp, bucket in sorted(self.buckets.items())
            },
        }

    def merge_dict(self, dump: dict) -> None:
        self.count += int(dump.get("count", 0))
        self.sum += float(dump.get("sum", 0.0))
        for exp, incoming in dump.get("buckets", {}).items():
            exp = int(exp)
            other = [int(incoming.get("count", 0)),
                     float(incoming.get("min", 0.0)),
                     float(incoming.get("max", 0.0)),
                     incoming.get("exemplar")]
            bucket = self.buckets.get(exp)
            if bucket is None:
                self.buckets[exp] = other
                continue
            bucket[0] += other[0]
            if other[1] < bucket[1]:
                bucket[1] = other[1]
            if other[2] > bucket[2] or (other[2] == bucket[2]  # repro-lint: disable=REP-N201 (deliberate exact tie-break on the recorded max)
                                        and _exemplar_wins(other[3],
                                                           bucket[3])):
                bucket[2] = other[2]
                bucket[3] = other[3]


def _exemplar_wins(candidate: str | None, incumbent: str | None) -> bool:
    """Deterministic exemplar tie-break at equal bucket maxima.

    A concrete trace id beats ``None``; between two ids the
    lexicographically smaller one wins, so merge order cannot change
    which exemplar survives.
    """
    if candidate is None:
        return False
    if incumbent is None:
        return True
    return candidate < incumbent


class MetricsRegistry:
    """Named counters, gauges and histograms behind one lock.

    ``to_dict()`` produces a plain-JSON dump (this is what travels over
    the `EngineServer` result pipe); ``merge()`` folds such a dump back
    in with commutative semantics: counters and histogram buckets add,
    gauges keep the maximum.  Merging the same dumps in any order yields
    an identical registry.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._sketches: dict[str, QuantileSketch] = {}

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def inc_many(self, items: dict[str, int], prefix: str = "") -> None:
        """Fold a counters dict in under one lock acquisition."""
        with self._lock:
            counters = self._counters
            for key, value in items.items():
                name = prefix + key
                counters[name] = counters.get(name, 0) + int(value)

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    def observe_sketch(self, name: str, value: float,
                       exemplar: str | None = None) -> None:
        """Fold one observation into the named quantile sketch.

        ``exemplar`` is typically the request's trace id: the sketch
        keeps the id of the slowest observation per bucket, so a reported
        p99 can be joined back to the concrete trace that produced it.
        """
        with self._lock:
            sketch = self._sketches.get(name)
            if sketch is None:
                sketch = self._sketches[name] = QuantileSketch()
            sketch.observe(value, exemplar)

    # -- reading -----------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> float | None:
        with self._lock:
            return self._gauges.get(name)

    def histogram(self, name: str) -> Histogram | None:
        with self._lock:
            return self._histograms.get(name)

    def sketch(self, name: str) -> QuantileSketch | None:
        with self._lock:
            return self._sketches.get(name)

    def sketch_names(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(name for name in self._sketches
                          if name.startswith(prefix))

    def counters_with_prefix(self, prefix: str) -> dict[str, int]:
        """Counters under ``prefix``, keys returned without it."""
        start = len(prefix)
        with self._lock:
            return {name[start:]: value
                    for name, value in self._counters.items()
                    if name.startswith(prefix)}

    def to_dict(self) -> dict:
        """JSON-ready snapshot (sorted keys for stable output)."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {name: hist.to_dict()
                               for name, hist in sorted(self._histograms.items())},
                "sketches": {name: sketch.to_dict()
                             for name, sketch in sorted(self._sketches.items())},
            }

    # -- merging / lifecycle -------------------------------------------------

    def merge(self, dump: dict) -> None:
        """Fold a ``to_dict()`` dump in (commutative, see class docstring)."""
        if not dump:
            return
        with self._lock:
            for name, value in dump.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + int(value)
            for name, value in dump.get("gauges", {}).items():
                value = float(value)
                prev = self._gauges.get(name)
                if prev is None or value > prev:
                    self._gauges[name] = value
            for name, hdump in dump.get("histograms", {}).items():
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = Histogram()
                hist.merge_dict(hdump)
            for name, sdump in dump.get("sketches", {}).items():
                sketch = self._sketches.get(name)
                if sketch is None:
                    sketch = self._sketches[name] = QuantileSketch()
                sketch.merge_dict(sdump)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._sketches.clear()


REGISTRY = MetricsRegistry()
"""The process-global registry.  `EngineServer` workers each have their
own (being separate processes) and ship ``to_dict()`` dumps back with
every response; the parent merges them via :meth:`MetricsRegistry.merge`."""


# -- stats absorption ------------------------------------------------------
#
# SOIStats / DescribeStats stay the per-query return value; these helpers
# are the single funnel that folds each finished query into the registry.
# They take duck-typed stats objects (anything with ``counters()``) so the
# obs package keeps zero imports from repro.core.

def record_soi_query(stats, registry: MetricsRegistry | None = None) -> None:
    """Absorb one finished SOI query's stats into ``soi.*`` metrics."""
    reg = REGISTRY if registry is None else registry
    reg.inc_many(stats.counters(), prefix="soi.")
    reg.inc("soi.queries")
    phases = getattr(stats, "phase_seconds", None) or {}
    total = 0.0
    for phase, seconds in phases.items():
        reg.observe(f"soi.phase.{phase}_s", seconds)
        total += seconds
    if phases:
        reg.observe("soi.query_s", total)


def record_describe_query(stats, seconds: float, method: str = "st_rel_div",
                          registry: MetricsRegistry | None = None) -> None:
    """Absorb one finished describe selection into ``describe.*`` metrics."""
    reg = REGISTRY if registry is None else registry
    reg.inc_many(stats.counters(), prefix="describe.")
    reg.inc("describe.queries")
    reg.observe(f"describe.{method}_select_s", seconds)


def record_serve_batch(size: int, groups: int,
                       registry: MetricsRegistry | None = None) -> None:
    """Absorb one worker micro-batch into ``serve.*`` metrics.

    ``size`` is how many queued requests the worker drained in one loop
    turn; ``groups`` how many distinct signature groups they collapsed
    into.  ``serve.batch_grouped`` counts the requests that shared a
    group with a predecessor — the ones that ran against an
    already-resolved session.
    """
    reg = REGISTRY if registry is None else registry
    reg.inc("serve.batches")
    reg.observe("serve.batch_size", float(size))
    if size > groups:
        reg.inc("serve.batch_grouped", size - groups)


def record_serve_request(kind: str, seconds: float,
                         trace_id: str | None = None, error: bool = False,
                         registry: MetricsRegistry | None = None) -> None:
    """Absorb one served request into ``serve.*`` metrics.

    Besides the request counter and latency histogram this feeds the
    per-kind streaming quantile sketch (``serve.latency.<kind>_s``) with
    the request's trace id as the exemplar, so the parent can report
    live p50/p90/p99 per request kind — and name the trace behind a
    tail observation — without storing samples.
    """
    reg = REGISTRY if registry is None else registry
    reg.inc("serve.requests")
    if error:
        reg.inc("serve.errors")
    reg.observe("serve.request_s", seconds)
    reg.observe_sketch(f"serve.latency.{kind}_s", seconds,
                       exemplar=trace_id)


__all__ = [
    "Histogram",
    "MAX_EXP",
    "MIN_EXP",
    "MetricsRegistry",
    "QuantileSketch",
    "REGISTRY",
    "bucket_bounds",
    "bucket_exponent",
    "record_describe_query",
    "record_serve_batch",
    "record_serve_request",
    "record_soi_query",
]
