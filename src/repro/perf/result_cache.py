"""Exact-result caching with dominated-``k`` reuse for the serve path.

A :class:`ResultCache` memoises finished request payloads — the
:class:`~repro.core.results.SOIResult` list of a k-SOI query or the photo-id
list of a describe query — keyed by the request's *canonical signature*.
For k-SOI the signature is every parameter **except** ``k`` and the
access strategy (kind, normalised ``Ψ``, ``ε``, ``weighted``): every
strategy is served the same ranking, and the
ranking is *prefix-stable* under the engine's deterministic tie-break:
``sorted(..., key=(-interest, street_id))`` sliced ``[:k]`` means the
k′-result is the first k′ entries of the k-result for any k′ ≤ k
(`repro.core.soi._refine`).

One k-SOI entry per signature therefore answers *every* ``k`` up to the
stored entry's: an equal ``k`` is an exact hit and a smaller ``k`` is a
*dominated-k* hit, both served by slicing.  An entry marked **complete**
answers any ``k``: its payload is the whole ranking, every street of
positive interest, so a larger ``k`` is served by slicing too and counted
as an ``exhausted_hits`` hit.  The serve path stores a complete ranking
for every k-SOI it computes (:mod:`repro.serve.server` answers from
:meth:`~repro.core.soi_baseline.BaselineSOI.ranking`), and a payload
shorter than its own ``k`` is complete by definition — the engine ran
out of positive-interest streets.  Under ``REPRO_CHECK=1`` every hit
that is not the stored payload verbatim is re-derived from scratch and
compared bit-for-bit (:func:`repro.analysis.contracts.check_prefix_slice`).

Describe signatures **do carry** ``k`` (street, ``ε``, ``λ``, ``w``,
``ρ``, ``k``): Equation 10 normalises the diversity term by
``λ / (k - 1)``, so the marginal value — and hence the greedy selection
itself, not just its length — depends on the requested summary size.
MMR summaries are *not* prefix-stable across ``k``
(``tests/test_prefix_stability.py`` keeps a concrete counterexample),
so describe payloads are reused only on exact-signature hits.

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
from repro.core.soi import parse_strategy
from repro.data.keywords import normalize_keywords
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
"""Stable metric-name prefix: ``serve.cache.exact_hits``,
``serve.cache.dominated_hits``, ``serve.cache.exhausted_hits``,
``serve.cache.misses``, ``serve.cache.insertions``,
``serve.cache.evictions``, ``serve.cache.invalidations`` (counters) and
``serve.cache.bytes`` / ``serve.cache.entries`` (gauges)."""


def request_cache_key(request) -> tuple:
    """The canonical signature of a request.

    k-SOI keys drop ``k`` (the ranking is prefix-stable, so one entry
    answers every smaller ``k`` by slicing, and a complete entry every
    larger one too); describe keys keep it
    (Equation 10's ``λ / (k - 1)`` normalisation makes the selection
    k-dependent, so only identical requests may share a payload).
    Keywords are normalised exactly as the engine normalises them, so
    requests that the engine cannot distinguish share a key.  The access
    strategy is validated but left out of the key: every strategy is
    served the same ranking by the same code, so requests that differ
    only in strategy share one entry.  An unknown strategy raises
    :class:`~repro.errors.QueryError`, so no lookup ever answers one.
    """
    # Imported late to avoid a cycle: serve.server imports this module.
    from repro.serve.server import DescribeRequest, SOIRequest

    if isinstance(request, SOIRequest):
        parse_strategy(request.strategy)
        return ("soi", tuple(sorted(normalize_keywords(request.keywords))),
                request.eps, bool(request.weighted))
    if isinstance(request, DescribeRequest):
        return ("describe", request.street_id, request.eps,
                request.lam, request.w, request.rho, request.k)
    return ("other", type(request).__name__, repr(request))


def slice_payload(payload: list, k: int) -> list:
    """The first ``k`` entries of a cached payload, as a fresh list.

    Always copies — even when ``k`` covers the whole payload — so every
    waiter owns its result and no caller can mutate the cached entry.
    """
    return payload[:k]


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


class _Entry:
    """One cached payload: the ``k`` it was computed at, its size, and
    whether it is complete (answers every ``k``)."""

    __slots__ = ("k", "payload", "nbytes", "complete")

    def __init__(self, k: int, payload: list, nbytes: int,
                 complete: bool) -> None:
        self.k = k
        self.payload = payload
        self.nbytes = nbytes
        self.complete = complete


class ResultCache:
    """Generation-stamped, LRU + byte-bounded exact-result cache.

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
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
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

    COUNTER_NAMES = ("exact_hits", "dominated_hits", "exhausted_hits",
                     "misses", "insertions", "evictions", "invalidations",
                     "kmax_elevations")
    """The canonical ``serve.cache.*`` counters, present in every
    :meth:`stats` snapshot even before their first increment.
    ``kmax_elevations`` counted micro-batch ``k_max`` grouping, which
    every-page-complete serving replaced; it stays named for the readers
    of the counter and reads 0."""

    def stats(self) -> dict:
        """Counter/gauge snapshot of this cache's registry namespace."""
        out = dict(self._registry.counters_with_prefix(METRIC_PREFIX))
        for name in self.COUNTER_NAMES:
            out.setdefault(name, 0)
        with self._lock:
            out["entries"] = len(self._entries)
            out["bytes"] = self._nbytes
        hits = (out.get("exact_hits", 0) + out.get("dominated_hits", 0)
                + out.get("exhausted_hits", 0))
        total = hits + out.get("misses", 0)
        out["hits"] = hits
        out["hit_rate"] = (hits / total) if total else 0.0
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
        """The payload for ``(key, k)``, or :data:`MISS`.

        A stored entry at ``k_e`` answers ``k == k_e`` exactly, any
        ``k < k_e`` by slicing (dominated-k reuse), and ``k > k_e`` when
        it is complete (the whole ranking, so deeper requests see a
        prefix of the same list).  With contracts enabled and
        ``recompute`` given, every hit other than the stored payload
        verbatim is checked bit-for-bit against a fresh computation
        before being served.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._registry.inc(METRIC_PREFIX + "misses")
                return MISS
            if k == entry.k:
                counter = "exact_hits"
            elif k < entry.k:
                counter = "dominated_hits"
            elif entry.complete:
                counter = "exhausted_hits"
            else:
                self._registry.inc(METRIC_PREFIX + "misses")
                return MISS
            self._entries.move_to_end(key)
            self._registry.inc(METRIC_PREFIX + counter)
            payload = slice_payload(entry.payload, k)
            sliced = len(payload) < len(entry.payload) or k != entry.k
        if sliced and contracts.ENABLED and recompute is not None:
            contracts.check_prefix_slice(payload, recompute(), key, k)
        return payload

    def store(self, key: tuple, k: int, payload: list,
              complete: bool = False) -> None:
        """Remember ``payload`` as the exact answer for ``(key, k)``.

        ``complete`` marks ``payload`` as the whole ranking, which may be
        longer than ``k``; a payload shorter than ``k`` is complete
        anyway.  When an entry already exists, a complete entry is kept
        and otherwise the complete or larger-``k`` payload wins (it
        dominates the other); a dominated store only refreshes the LRU
        position.
        """
        complete = complete or len(payload) < k
        nbytes = estimate_payload_bytes(payload)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                if entry.complete or (k <= entry.k and not complete):
                    return
                self._nbytes -= entry.nbytes
                entry.k, entry.payload, entry.nbytes, entry.complete = (
                    k, payload, nbytes, complete)
                self._nbytes += nbytes
            else:
                self._entries[key] = _Entry(k, payload, nbytes, complete)
                self._nbytes += nbytes
                self._registry.inc(METRIC_PREFIX + "insertions")
            evicted = 0
            while (len(self._entries) > self._max_entries
                   or (self._nbytes > self._max_bytes
                       and len(self._entries) > 1)):
                _, old = self._entries.popitem(last=False)
                self._nbytes -= old.nbytes
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
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MAX_ENTRIES",
    "MISS",
    "ResultCache",
    "estimate_payload_bytes",
    "request_cache_key",
    "slice_payload",
]
