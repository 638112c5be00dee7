"""Complete-result caching for the serve path.

A :class:`ResultCache` is an LRU of finished payloads keyed by the
request's *canonical signature* (:func:`request_cache_key`), and every
entry is complete for its key:

* A k-SOI key is every parameter **except** ``k`` and the access
  strategy (kind, normalised ``Ψ``, ``ε``, ``weighted``): every strategy
  is served the same ranking.  Its payload is the complete ranking of
  that signature, every street of positive interest
  (:meth:`~repro.core.soi_baseline.BaselineSOI.ranking`).  The ranking is
  *prefix-stable* under the engine's deterministic tie-break
  ``(-interest, street_id)``, so the answer at any ``k`` is its first
  ``k`` entries.
* A describe key **carries** ``k`` (street, ``ε``, ``λ``, ``w``, ``ρ``,
  ``k``): Equation 10 normalises the diversity term by ``λ / (k - 1)``,
  so the greedy selection itself, not just its length, depends on the
  requested summary size.  MMR summaries are *not* prefix-stable across
  ``k`` (``tests/test_prefix_stability.py`` keeps a concrete
  counterexample), so a describe entry is that request's exact payload.

:meth:`ResultCache.lookup` therefore answers ``(key, k)`` with a fresh
``payload[:k]``.  Under ``REPRO_CHECK=1`` every hit that is not the
stored payload verbatim (``k`` differs from its length) is re-derived
from scratch and compared bit-for-bit
(:func:`repro.analysis.contracts.check_prefix_slice`).

Entries are LRU-ordered and doubly bounded (entry count and estimated
payload bytes); the cache is stamped with the owning engine's
``index_generation`` and :meth:`ResultCache.ensure_generation` discards
everything wholesale the moment the stamp moves — stale exact results are
never patched, mirroring :class:`~repro.perf.session.QuerySessionPool`.
Counters and gauges flow into :mod:`repro.obs.metrics` under the stable
``serve.cache.*`` names, so hit rates surface in ``repro metrics``,
``repro top`` and the OpenMetrics export.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

from repro.analysis import contracts
from repro.core.interest import validate_query
from repro.core.soi import parse_strategy
from repro.errors import QueryError
from repro.obs.metrics import REGISTRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

DEFAULT_MAX_ENTRIES = 256
"""Default signature capacity: enough for every distinct query of the
paper's experiment grid with room to spare, small enough that the LRU
scan stays trivial."""

DEFAULT_MAX_BYTES = 32 << 20
"""Default payload byte budget (32 MiB of estimated payload size)."""

MISS = object()
"""Sentinel returned by :meth:`ResultCache.lookup` on a miss (payloads may
legitimately be empty lists, so ``None`` cannot signal a miss)."""

METRIC_PREFIX = "serve.cache."
"""Stable metric-name prefix: ``serve.cache.hits``,
``serve.cache.misses``, ``serve.cache.insertions``,
``serve.cache.evictions``, ``serve.cache.invalidations`` (counters) and
``serve.cache.bytes`` / ``serve.cache.entries`` (gauges)."""

COUNTER_NAMES = ("hits", "misses", "insertions", "evictions",
                 "invalidations")
"""The ``serve.cache.*`` counters, present in every stats snapshot even
before their first increment."""


def request_cache_key(request) -> tuple:
    """The canonical signature of a request.

    k-SOI keys drop ``k`` (the entry is the complete ranking, and the
    answer at every ``k`` is its prefix); describe keys keep it
    (Equation 10's ``λ / (k - 1)`` normalisation makes the selection
    k-dependent, so only identical requests may share a payload).
    Keywords are normalised exactly as the engine normalises them, so
    requests that the engine cannot distinguish share a key.  A k-SOI
    request is validated as the engine validates it, its access strategy
    included, so no lookup ever answers a request the engine refuses
    (``k < 1`` would otherwise be answered by slicing).  The strategy is
    left out of the key: every strategy is served the same ranking by the
    same code, so requests that differ only in strategy share one entry.
    Raises :class:`~repro.errors.QueryError` for an invalid k-SOI request
    or an unsupported request type.
    """
    # Imported late to avoid a cycle: serve.server imports this module.
    from repro.serve.server import DescribeRequest, SOIRequest

    if isinstance(request, SOIRequest):
        parse_strategy(request.strategy)
        keywords = validate_query(request.keywords, request.k, request.eps)
        return ("soi", tuple(sorted(keywords)), request.eps,
                bool(request.weighted))
    if isinstance(request, DescribeRequest):
        return ("describe", request.street_id, request.eps,
                request.lam, request.w, request.rho, request.k)
    raise QueryError(f"unsupported request type {type(request).__name__}")


def estimate_payload_bytes(payload) -> int:
    """Deterministic rough byte size of a payload for the cache budget.

    ``sys.getsizeof`` of the container plus ``len(payload)`` times the
    size of its first item (with the street name of an SOI result): the
    items of one payload share a type, so one sample sizes them all in
    O(1).  An estimate is enough: the budget exists to bound memory
    growth, not to account for it exactly.
    """
    if isinstance(payload, (list, tuple)):
        total = sys.getsizeof(payload)
        if payload:
            item = payload[0]
            per_item = sys.getsizeof(item)
            name = getattr(item, "street_name", None)
            if name is not None:
                per_item += sys.getsizeof(name)
            total += len(payload) * per_item
        return total
    return sys.getsizeof(payload)


def counter_stats(registry: "MetricsRegistry") -> dict:
    """The ``serve.cache.*`` counters of ``registry`` (every one of
    :data:`COUNTER_NAMES`, 0 before its first increment) and
    ``hit_rate``, hits over lookups."""
    out = dict.fromkeys(COUNTER_NAMES, 0)
    out.update(registry.counters_with_prefix(METRIC_PREFIX))
    lookups = out["hits"] + out["misses"]
    out["hit_rate"] = (out["hits"] / lookups) if lookups else 0.0
    return out


class ResultCache:
    """Generation-stamped, LRU + byte-bounded cache of complete payloads.

    Thread-safe: all bookkeeping happens under one lock (lookups copy the
    payload out, so no caller ever holds a reference into the cache).
    """

    __slots__ = ("_entries", "_lock", "_max_entries", "_max_bytes",
                 "_nbytes", "generation", "_registry")

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 generation: int = 0,
                 registry: "MetricsRegistry | None" = None) -> None:
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be at least 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be at least 1, got {max_bytes}")
        # key -> (payload, estimated payload bytes)
        self._entries: OrderedDict[tuple, tuple[list, int]] = OrderedDict()
        self._lock = threading.Lock()
        self._max_entries = max_entries
        self._max_bytes = max_bytes
        self._nbytes = 0
        self.generation = generation
        self._registry = REGISTRY if registry is None else registry

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Estimated bytes of all cached payloads."""
        with self._lock:
            return self._nbytes

    @property
    def registry(self) -> "MetricsRegistry":
        """The metrics registry this cache's counters flow into."""
        return self._registry

    def stats(self) -> dict:
        """Counter/gauge snapshot of this cache's registry namespace."""
        out = counter_stats(self._registry)
        with self._lock:
            out["entries"] = len(self._entries)
            out["bytes"] = self._nbytes
        return out

    # -- generation stamping ----------------------------------------------

    def ensure_generation(self, generation: int) -> None:
        """Wholesale invalidation when the index generation moves on."""
        with self._lock:
            if generation == self.generation:
                return
            self._entries.clear()
            self._nbytes = 0
            self.generation = generation
            self._registry.inc(METRIC_PREFIX + "invalidations")
            self._publish_gauges(0, 0)

    def invalidate(self, generation: int | None = None) -> None:
        """Drop every entry; optionally restamp to ``generation``."""
        with self._lock:
            self._entries.clear()
            self._nbytes = 0
            if generation is not None:
                self.generation = generation
            self._registry.inc(METRIC_PREFIX + "invalidations")
            self._publish_gauges(0, 0)

    # -- lookup / store ----------------------------------------------------

    def lookup(self, key: tuple, k: int,
               recompute: "Callable[[], list] | None" = None):
        """The first ``k`` entries of ``key``'s payload as a fresh list,
        or :data:`MISS`.

        With contracts enabled and ``recompute`` given, a hit that is not
        the stored payload verbatim (``k`` shorter or longer than it) is
        checked bit-for-bit against a fresh computation before being
        served.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._registry.inc(METRIC_PREFIX + "misses")
                return MISS
            self._entries.move_to_end(key)
            self._registry.inc(METRIC_PREFIX + "hits")
            stored = entry[0]
            payload = stored[:k]
        if k != len(stored) and contracts.ENABLED and recompute is not None:
            contracts.check_prefix_slice(payload, recompute(), key, k)
        return payload

    def store(self, key: tuple, payload: list) -> None:
        """Remember ``payload`` as the complete answer for ``key``: a k-SOI
        signature's whole ranking, or a describe request's payload.

        A key already stored keeps its payload, which is the same answer,
        and only moves to the most recent LRU position.
        """
        nbytes = estimate_payload_bytes(payload)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return
            self._entries[key] = (payload, nbytes)
            self._nbytes += nbytes
            self._registry.inc(METRIC_PREFIX + "insertions")
            evicted = 0
            while (len(self._entries) > self._max_entries
                   or (self._nbytes > self._max_bytes
                       and len(self._entries) > 1)):
                _, (_payload, old_nbytes) = self._entries.popitem(last=False)
                self._nbytes -= old_nbytes
                evicted += 1
            if evicted:
                self._registry.inc(METRIC_PREFIX + "evictions", evicted)
            self._publish_gauges(self._nbytes, len(self._entries))

    def _publish_gauges(self, nbytes: int, entries: int) -> None:
        """Gauge refresh; values are passed in so callers (which already
        hold the lock) never re-enter it."""
        self._registry.set_gauge(METRIC_PREFIX + "bytes", float(nbytes))
        self._registry.set_gauge(METRIC_PREFIX + "entries", float(entries))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (f"ResultCache(entries={len(self._entries)}, "
                    f"nbytes={self._nbytes}, generation={self.generation})")


__all__ = [
    "COUNTER_NAMES",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MAX_ENTRIES",
    "MISS",
    "ResultCache",
    "counter_stats",
    "estimate_payload_bytes",
    "request_cache_key",
]
