"""Keyword-signature query sessions: cross-query reuse of materialisations.

A k-SOI parameter sweep (varying ``k``, ``eps`` or the access strategy)
re-runs the engine with the *same normalised keyword set* many times, and
every run needs the same materialisations: the per-cell relevant-count
upper bounds that seed SL1, and the mass of every ``(segment, cell)``
slot of Definition 1.

A :class:`QuerySession` owns both for one keyword signature:

* the :class:`~repro.core.source_lists.CellBounds` ``|P_Psi(c)|``
  (Algorithm 1, line 2), which depends only on the keywords — not on
  ``k``/``eps`` — and its projection onto each ``eps``'s store layout;
* per-``(eps, weighted)`` :class:`~repro.core.state_store.MassSlots`,
  built by one vectorised pass
  (:func:`~repro.core.interest.materialise_slot_masses`) when first
  asked for.  Every mass is the bitwise-exact float a fresh pass would
  compute, so serving it cannot change any downstream comparison or
  bound.

It also recycles the per-run scratch
:class:`~repro.core.state_store.SegmentStateStore` columns.

Sessions live in a :class:`QuerySessionPool` with an LRU bound on retained
signatures.  The pool must be **explicitly invalidated when the indexes it
reads are rebuilt** (:meth:`~repro.core.soi.SOIEngine.rebuild_indexes`
does this); stale sessions are discarded wholesale rather than patched.

Thread-compatibility: session caches are only ever *added to* (a lost
update merely recomputes a value), and the pool serialises its LRU
book-keeping behind a lock, so concurrent queries from
:func:`repro.perf.parallel.run_parallel` are safe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.core.interest import materialise_slot_masses
from repro.core.source_lists import CellBounds
from repro.core.state_store import (
    MassSlots,
    SegmentStateStore,
    SignatureBindings,
)
from repro.obs.metrics import REGISTRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.state_store import StoreLayout
    from repro.index.poi_grid import POIGridIndex

DEFAULT_MAX_SESSIONS = 8
"""How many keyword signatures a pool retains by default.  A sweep touches
one signature at a time; interactive workloads rarely rotate through more
than a handful of keyword sets before the oldest is cold anyway."""


class QuerySession:
    """All cached per-query materialisations for one keyword signature."""

    __slots__ = ("signature", "generation", "_poi_index", "_bounds",
                 "queries_served", "_store_lock", "_bindings",
                 "_mass_slots", "_state_stores", "store_reuses")

    def __init__(self, poi_index: "POIGridIndex",
                 signature: frozenset[str], generation: int = 0) -> None:
        self.signature = signature
        self.generation = generation
        self._poi_index = poi_index
        self._bounds: CellBounds | None = None
        self.queries_served = 0
        # Per-eps signature bindings, per (eps, weighted) slot masses, and
        # the recycled scratch stores.  Unlike the add-only caches, the
        # scratch stores are *mutated* per run, so the free-list hands
        # each out exclusively; the lock serialises all three maps.
        self._store_lock = threading.Lock()
        self._bindings: dict[float, SignatureBindings] = {}
        self._mass_slots: dict[tuple[float, bool], MassSlots] = {}
        self._state_stores: dict[float, list[SegmentStateStore]] = {}
        self.store_reuses = 0

    def cell_upper_bounds(self) -> CellBounds:
        """``|P_Psi(c)| > 0`` per candidate cell (Algorithm 1, line 2).

        Computed once per signature; every sweep configuration seeds its
        SL1 from these presorted entries instead of re-scanning the
        global index.
        """
        if self._bounds is None:
            self._bounds = CellBounds(self._poi_index, self.signature)
        return self._bounds

    def store_bindings(self, layout: "StoreLayout") -> SignatureBindings:
        """This signature's cell upper bounds projected onto ``layout``."""
        with self._store_lock:
            bindings = self._bindings.get(layout.eps)
        if bindings is None:
            built = SignatureBindings(layout, self.cell_upper_bounds())
            with self._store_lock:
                # A concurrent builder may have won; both built the same
                # deterministic arrays, keep whichever landed first.
                bindings = self._bindings.setdefault(layout.eps, built)
        return bindings

    def store_mass_slots(self, layout: "StoreLayout", weighted: bool,
                         stats=None) -> tuple[MassSlots, bool]:
        """Every slot mass for one ``(eps, weighted)``; True when another
        call already materialised them.

        A miss runs the pass outside the lock (``stats`` counts it) and
        keeps whichever concurrent result landed first: both are the same
        deterministic floats.
        """
        key = (layout.eps, weighted)
        with self._store_lock:
            slots = self._mass_slots.get(key)
        if slots is not None:
            return slots, True
        built = materialise_slot_masses(layout, self._poi_index,
                                        self.signature, weighted, stats)
        with self._store_lock:
            slots = self._mass_slots.setdefault(key, built)
        return slots, False

    def acquire_state_store(
            self, layout: "StoreLayout") -> tuple[SegmentStateStore, bool]:
        """A scratch store for one run; True when recycled from the pool.

        The store is handed out exclusively — the caller must return it
        via :meth:`release_state_store` when (and only when) the run
        completed normally.
        """
        with self._store_lock:
            pool = self._state_stores.get(layout.eps)
            store = pool.pop() if pool else None
        if store is None:
            return SegmentStateStore(layout), False
        self.store_reuses += 1
        REGISTRY.inc("session.store_reuse_hits")
        return store, True

    def release_state_store(self, store: SegmentStateStore) -> None:
        """Return a scratch store to the free-list for the next run."""
        with self._store_lock:
            self._state_stores.setdefault(store.layout.eps, []).append(store)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._store_lock:
            masses = sum(slots.num_relevant
                         for slots in self._mass_slots.values())
        return (f"QuerySession(signature={sorted(self.signature)!r}, "
                f"masses={masses})")


class QuerySessionPool:
    """LRU pool of :class:`QuerySession` objects, one per keyword signature."""

    def __init__(self, poi_index: "POIGridIndex",
                 maxsize: int = DEFAULT_MAX_SESSIONS) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be at least 1, got {maxsize}")
        self._poi_index = poi_index
        self.maxsize = maxsize
        self.generation = 0
        self._sessions: OrderedDict[frozenset[str], QuerySession] = \
            OrderedDict()
        self._lock = threading.Lock()
        self.evictions = 0

    def get(self, signature: frozenset[str]) -> QuerySession:
        """The session for a normalised keyword set (created on first use)."""
        with self._lock:
            session = self._sessions.get(signature)
            if session is None:
                REGISTRY.inc("session.pool_misses")
                session = QuerySession(self._poi_index, signature,
                                       self.generation)
                self._sessions[signature] = session
                while len(self._sessions) > self.maxsize:
                    self._sessions.popitem(last=False)
                    self.evictions += 1
                    REGISTRY.inc("session.pool_evictions")
            else:
                REGISTRY.inc("session.pool_hits")
                self._sessions.move_to_end(signature)
            REGISTRY.set_gauge("session.pool_size", len(self._sessions))
            return session

    def peek(self, signature: frozenset[str]) -> QuerySession | None:
        """The retained session, if any, without touching LRU order."""
        with self._lock:
            return self._sessions.get(signature)

    def invalidate(self, poi_index: "POIGridIndex | None" = None) -> None:
        """Drop every session (call after the indexes are rebuilt).

        Passing the freshly built ``poi_index`` re-targets future sessions
        at it; omitting it keeps the current index (useful for tests and
        for bounding memory without a rebuild).
        """
        with self._lock:
            self._sessions.clear()
            self.generation += 1
            if poi_index is not None:
                self._poi_index = poi_index

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, signature: frozenset[str]) -> bool:
        with self._lock:
            return signature in self._sessions
