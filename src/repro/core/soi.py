"""The SOI algorithm (Algorithm 1) and its public entry point, SOIEngine.

The algorithm processes a k-SOI query top-k style: it pulls promising
street segments from three ranked source lists (see
:mod:`repro.core.source_lists`), maintains a *seen* lower bound ``LBk`` on
the interest of the k best streets so far and an *unseen* upper bound
``UB`` on the interest of any untouched segment, and stops pulling as soon
as ``LBk >= UB`` (Lemma 1).  A refinement phase then finalises the exact
interest of the seen segments — optionally pruning those whose optimistic
interest cannot reach the k-th best street.

Correctness notes (also summarised in DESIGN.md):

* Popping a cell from SL1 touches every segment of ``L_eps(c)``, so any
  still-unseen segment has only un-popped cells in its ``eps``-
  neighbourhood; hence ``top(SL1)`` bounds the relevant count of each of
  its cells, ``top(SL2)`` bounds how many such cells it has, and
  ``top(SL3)`` bounds its length from below.
* For weighted-POI queries every count bound is multiplied by the maximum
  POI weight, keeping ``UB`` and the refinement bounds sound.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

import numpy as np

from repro.analysis import contracts
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from repro.obs.slowlog import SLOWLOG
from repro.obs.tracer import perf_now, trace_span
from repro.core.interest import (
    RelevantCellCache,
    buffer_area,
    segment_interest,
    segment_mass_batched_slots,
    segment_mass_in_cell,
    validate_query,
)
from repro.core.results import SOIResult, SOIStats
from repro.core.source_lists import CellSourceList, SegmentSourceList
from repro.core.state_store import (
    MassSlots,
    SegmentStateStore,
    SignatureBindings,
    StoreLayout,
    TopKThreshold,
)
from repro.data.poi import POISet
from repro.geometry.bbox import BBox
from repro.index.cell_maps import SegmentCellMaps
from repro.index.grid import CellCoord
from repro.index.poi_grid import POIGridIndex
from repro.network.model import RoadNetwork

DEFAULT_EPS = 0.0005
"""The distance threshold used throughout the paper's experiments
(0.0005 degrees, about 55 m)."""


class AccessStrategy(Enum):
    """How the filtering phase cycles through the source lists.

    The paper notes that correctness "is not affected by the access
    strategy" and that in practice it alternates between SL1 and SL3;
    the pseudocode itself round-robins SL1 -> SL2 -> SL3.  All variants
    are provided for the ablation benchmark.
    """

    ALTERNATE = "alternate"          # SL1 <-> SL3 (the paper's practice)
    ROUND_ROBIN = "round_robin"      # SL1 -> SL2 -> SL3 (the pseudocode)
    CELLS_FIRST = "cells_first"      # drain SL1, then segments
    SEGMENTS_FIRST = "segments_first"  # drain SL3, then cells

    @property
    def cycle(self) -> tuple[str, ...]:
        return {
            AccessStrategy.ALTERNATE: ("SL1", "SL3"),
            AccessStrategy.ROUND_ROBIN: ("SL1", "SL2", "SL3"),
            AccessStrategy.CELLS_FIRST: ("SL1",),
            AccessStrategy.SEGMENTS_FIRST: ("SL3",),
        }[self]


class SOIEngine:
    """Indexes a road network and a POI set; answers k-SOI queries.

    Builds the offline structures of Section 3.2.1 once (grid + local and
    global inverted indexes over POIs, cell/segment maps); the query-time
    ``eps`` augmentation is cached inside :class:`SegmentCellMaps`.

    Parameters
    ----------
    network, pois:
        The data to index.
    cell_size:
        Grid cell side; defaults to ``2 * DEFAULT_EPS``.
    extent_margin:
        How far beyond the joint network/POI MBR the grid extends, so that
        ``eps``-buffers near the border stay inside the grid.  Defaults to
        ``4 * cell_size``.
    """

    def __init__(
        self,
        network: RoadNetwork,
        pois: POISet,
        cell_size: float | None = None,
        extent_margin: float | None = None,
        session_pool_size: int | None = None,
    ) -> None:
        from repro.perf.session import DEFAULT_MAX_SESSIONS, QuerySessionPool

        self.network = network
        self.pois = pois
        self._cell_size = cell_size
        self._extent_margin = extent_margin
        self.index_generation = 0
        self._build_indexes()
        self.sessions = QuerySessionPool(
            self.poi_index,
            maxsize=(DEFAULT_MAX_SESSIONS if session_pool_size is None
                     else session_pool_size))

    @classmethod
    def from_prebuilt(
        cls,
        network: RoadNetwork,
        pois: POISet,
        poi_index: POIGridIndex,
        cell_maps: SegmentCellMaps,
        extent: BBox,
        sl3_entries: tuple[tuple[int, float], ...],
        index_generation: int = 0,
        session_pool_size: int | None = None,
    ) -> "SOIEngine":
        """An engine over *already built* index structures.

        The constructor path derives every structure from the raw data;
        this one wires externally supplied ones instead — it is how
        :func:`repro.serve.views.attach_engine` rebuilds a serving view
        over a shared-memory :class:`~repro.serve.snapshot.IndexSnapshot`
        without re-running index construction.  The caller is responsible
        for the structures being mutually consistent (same grid, same
        data); everything derived here (``_max_weight``, the SL2 cache
        seed) is recomputed from them exactly as ``__init__`` would.
        """
        from repro.perf.session import DEFAULT_MAX_SESSIONS, QuerySessionPool

        engine = cls.__new__(cls)
        engine.network = network
        engine.pois = pois
        engine._cell_size = poi_index.grid.cell_size
        engine._extent_margin = None
        engine.index_generation = index_generation
        engine.extent = extent
        engine.poi_index = poi_index
        engine.cell_maps = cell_maps
        engine._max_weight = (float(pois.weights.max()) if len(pois)
                              else 0.0)
        engine._sl3_entries = sl3_entries
        engine._sl2_cache = {}
        engine._store_layouts = {}
        engine.sessions = QuerySessionPool(
            poi_index,
            maxsize=(DEFAULT_MAX_SESSIONS if session_pool_size is None
                     else session_pool_size))
        return engine

    @trace_span("index.build")
    def _build_indexes(self) -> None:
        cell_size = self._cell_size
        extent_margin = self._extent_margin
        if cell_size is None:
            cell_size = 2.0 * DEFAULT_EPS
        if extent_margin is None:
            extent_margin = 4.0 * cell_size
        network, pois = self.network, self.pois
        extent = network.bbox()
        if len(pois):
            extent = extent.union(
                BBox(float(pois.xs.min()), float(pois.ys.min()),
                     float(pois.xs.max()), float(pois.ys.max())))
        self.extent = extent.expanded(extent_margin)
        with trace_span("index.poi_grid"):
            self.poi_index = POIGridIndex(pois, self.extent, cell_size)
        with trace_span("index.cell_maps"):
            self.cell_maps = SegmentCellMaps(network, self.poi_index.grid)
        self._max_weight = float(pois.weights.max()) if len(pois) else 0.0
        # SL3 order (length ascending) is query-independent; SL2 order
        # depends only on eps, so it is cached per eps value.
        with trace_span("index.source_list_orders"):
            self._sl3_entries: tuple[tuple[int, float], ...] = tuple(sorted(
                ((seg.id, seg.length) for seg in network.iter_segments()),
                key=lambda e: (e[1], e[0])))
        self._sl2_cache: dict[float, tuple[tuple[tuple[int, float], ...],
                                           float]] = {}
        self._store_layouts: dict[float, StoreLayout] = {}

    def rebuild_indexes(
        self,
        cell_size: float | None = None,
        extent_margin: float | None = None,
    ) -> None:
        """Rebuild the offline structures (e.g. after re-tuning the grid).

        Passing ``cell_size``/``extent_margin`` overrides the construction
        parameters; omitted values keep the current ones.  Every retained
        :class:`~repro.perf.session.QuerySession` is invalidated — their
        cached materialisations point into the old index — and
        ``index_generation`` is bumped so that exported
        :class:`~repro.serve.snapshot.IndexSnapshot` blocks (which record
        the generation they captured) are recognised as stale by the
        serving layer.
        """
        if cell_size is not None:
            self._cell_size = cell_size
        if extent_margin is not None:
            self._extent_margin = extent_margin
        self._build_indexes()
        self.index_generation += 1
        self.sessions.invalidate(self.poi_index)

    def invalidate_sessions(self) -> None:
        """Drop all cached query sessions (alias for pool invalidation)."""
        self.sessions.invalidate()

    def session_for(self, keywords: Iterable[str]):
        """The :class:`~repro.perf.session.QuerySession` for a keyword set."""
        from repro.data.keywords import normalize_keywords

        return self.sessions.get(normalize_keywords(keywords))

    def _sl2_entries(self, eps: float) -> tuple[
            tuple[tuple[int, float], ...], float]:
        """Sorted SL2 entries and the adaptive-SL2 threshold, per eps."""
        cached = self._sl2_cache.get(eps)
        if cached is None:
            # Entries ordered by (-|C_eps(l)|, segment id); the threshold
            # scales the upper median of the counts.
            col = self.cell_maps.augmented_cell_counts_column(eps)
            sids = self.cell_maps.segment_ids_column
            order = np.lexsort((sids, -col))
            entries = tuple(
                (int(sids[pos]), float(col[pos])) for pos in order.tolist())
            n = int(col.shape[0])
            median = int(np.sort(col)[n // 2]) if n else 0.0
            cached = (entries, 1.5 * median)
            self._sl2_cache[eps] = cached
        return cached

    def store_layout(self, eps: float) -> StoreLayout:
        """The dense/CSR :class:`StoreLayout` for one ``eps`` (cached).

        Query-independent like the SL2/SL3 orders; rebuilt lazily after
        :meth:`rebuild_indexes` (which resets the cache).
        """
        layout = self._store_layouts.get(eps)
        if layout is None:
            with trace_span("index.store_layout", eps=eps):
                layout = StoreLayout(self.network, self.cell_maps, eps)
            self._store_layouts[eps] = layout
        return layout

    # -- public API ---------------------------------------------------------

    def top_k(
        self,
        keywords: Iterable[str],
        k: int,
        eps: float = DEFAULT_EPS,
        strategy: AccessStrategy = AccessStrategy.ALTERNATE,
        prune_refinement: bool = True,
        weighted: bool = False,
        use_session: bool = True,
        session=None,
    ) -> list[SOIResult]:
        """Answer a k-SOI query (Problem 1).

        Returns up to ``k`` streets ordered by decreasing interest (ties
        broken by street id); streets with zero interest are never
        reported.  Set ``weighted=True`` to sum POI weights instead of
        counting POIs (the Definition 1 adaptation).

        ``use_session=True`` (the default) serves the query through the
        engine's :class:`~repro.perf.session.QuerySessionPool`, so sweeps
        over ``k``/``eps``/strategy with the same keywords reuse per-cell
        materialisations; cached values are bitwise what a fresh run would
        compute, so results are identical either way.  A caller that
        already resolved the session (batched serving) may pass it via
        ``session`` — it must belong to this engine and to the same
        normalised keyword set.
        """
        results, _stats = self.top_k_with_stats(
            keywords, k, eps, strategy=strategy,
            prune_refinement=prune_refinement, weighted=weighted,
            use_session=use_session, session=session)
        return results

    def top_k_with_stats(
        self,
        keywords: Iterable[str],
        k: int,
        eps: float = DEFAULT_EPS,
        strategy: AccessStrategy = AccessStrategy.ALTERNATE,
        prune_refinement: bool = True,
        weighted: bool = False,
        use_session: bool = True,
        session=None,
    ) -> tuple[list[SOIResult], SOIStats]:
        """Like :meth:`top_k` but also returns work/timing counters."""
        query = validate_query(keywords, k, eps)
        if session is None and use_session:
            session = self.sessions.get(query)
        run = _SOIRun(self, query, k, eps,
                      strategy, prune_refinement, weighted, session=session)
        return run.execute()

    def segment_exact_interest(
        self,
        segment_id: int,
        keywords: Iterable[str],
        eps: float = DEFAULT_EPS,
        weighted: bool = False,
        use_session: bool = True,
    ) -> float:
        """Exact Definition 2 interest of one segment (indexed path)."""
        from repro.core.interest import segment_mass

        query = validate_query(keywords, 1, eps)
        session = self.sessions.get(query) if use_session else None
        segment = self.network.segment(segment_id)
        mass = segment_mass(
            segment, self.poi_index, self.cell_maps, query, eps, weighted,
            cache=session.cache if session is not None else None)
        return segment_interest(mass, segment.length, eps)


class _SOIRun:
    """One execution of Algorithm 1 over a prepared :class:`SOIEngine`."""

    def __init__(
        self,
        engine: SOIEngine,
        query: frozenset[str],
        k: int,
        eps: float,
        strategy: AccessStrategy,
        prune_refinement: bool,
        weighted: bool,
        session=None,
    ) -> None:
        self.engine = engine
        self.query = query
        self.k = k
        self.eps = eps
        self.strategy = strategy
        self.prune_refinement = prune_refinement
        self.weighted = weighted
        self.stats = SOIStats()
        self.session = session
        if session is not None:
            # Cross-query reuse: the session owns the relevant-cell cache
            # and the slot mass memo for this (eps, weighted).
            self.cache = session.cache
            self.stats.session_reused = session.queries_served > 0
            session.queries_served += 1
        else:
            self.cache = RelevantCellCache(engine.poi_index, query)
        # Bound by _store_setup when the source lists are built.
        self.store: SegmentStateStore | None = None
        self._layout: StoreLayout | None = None
        self._bind: SignatureBindings | None = None
        self._mass_slots: MassSlots | None = None
        # Mass-memo misses count only when the memo outlives this run
        # (session-owned slots); a sessionless run's slots are scratch.
        self._count_memo = session is not None
        self._lbk_topk = TopKThreshold(k)
        self._lbk_dirty = True
        self._lbk = 0.0
        # Weighted queries bound per-cell relevant mass by count * max weight.
        self._weight_cap = engine._max_weight if weighted else 1.0
        # Contract monitor (Lemma 1 / Definition 1); None on the fast path.
        self._monitor = (contracts.SOIContractMonitor()
                         if contracts.ENABLED else None)

    # -- driver -----------------------------------------------------------

    def execute(self) -> tuple[list[SOIResult], SOIStats]:
        mark = obs_tracer.TRACER.mark() if obs_tracer.ENABLED else 0
        with trace_span("soi.query", k=self.k, eps=self.eps,
                        strategy=self.strategy.value, weighted=self.weighted,
                        keywords=",".join(sorted(self.query))):
            hits0, misses0 = self.cache.hits, self.cache.misses
            t0 = perf_now()
            with trace_span("soi.build_source_lists"):
                self._build_source_lists()
            t1 = perf_now()
            with trace_span("soi.filter"):
                self._filter()
            t2 = perf_now()
            kernels_before_refine = self.stats.kernel_calls
            with trace_span("soi.refine"):
                results = self._refine()
            t3 = perf_now()
        if self.session is not None:
            # Recycle the scratch columns; on an exception the store is
            # simply dropped, so a poisoned run can never be reused.
            self.session.release_state_store(self.store)
        self.stats.refine_kernel_calls = (
            self.stats.kernel_calls - kernels_before_refine)
        self.stats.relevant_cache_hits = self.cache.hits - hits0
        self.stats.relevant_cache_misses = self.cache.misses - misses0
        self.stats.phase_seconds = {
            "build": t1 - t0, "filter": t2 - t1, "refine": t3 - t2}
        obs_metrics.record_soi_query(self.stats)
        if SLOWLOG.enabled:
            SLOWLOG.maybe_record(
                "soi",
                {"keywords": sorted(self.query), "k": self.k, "eps": self.eps,
                 "strategy": self.strategy.value, "weighted": self.weighted},
                t3 - t0, self.stats.counters(),
                obs_tracer.TRACER.spans_since(mark)
                if obs_tracer.ENABLED else ())
        if self._monitor is not None:
            self._monitor.check_results(self.engine, self.query, self.eps,
                                        self.weighted, self.k, results)
        return results, self.stats

    # -- phase 1: source lists --------------------------------------------

    def _build_source_lists(self) -> None:
        # Per-cell |P_Psi(c)| upper bounds; cells absent from this map hold
        # no relevant POI, so visiting them contributes nothing to mass.
        if self.session is not None:
            # Keyword-only aggregate: computed once per signature, shared
            # by every (k, eps, strategy) configuration of the sweep.  The
            # SL1 order is likewise signature-only, so the session serves
            # it presorted and warm queries skip the re-sort.
            self._cell_ub = self.session.cell_upper_bounds()
            self.sl1 = CellSourceList(self.session.sl1_entries(),
                                      presorted=True)
        else:
            poi_index = self.engine.poi_index
            self._cell_ub: dict[CellCoord, int] = {}
            sl1_entries = []
            for cell in poi_index.candidate_cells(self.query):
                ub = poi_index.relevant_count_upper_bound(cell, self.query)
                if ub > 0:
                    self._cell_ub[cell] = ub
                    sl1_entries.append((cell, ub))
            self.sl1 = CellSourceList(sl1_entries)

        # Threshold for the paper's adaptive SL2 access: "we only access
        # segments via the second source SL2 in the case that a few
        # segments with a large number of neighboring cells exist".  A
        # segment whose |C_eps| is far above the median is such an outlier:
        # it keeps top(SL2) — and hence UB — inflated, so it is retrieved
        # directly instead of waiting for a cell access to reach it.
        sl2_entries, self._sl2_threshold = self.engine._sl2_entries(self.eps)
        self._store_setup()
        is_final = self._store_is_final
        is_seen = self._store_is_seen
        self.sl2 = SegmentSourceList(
            sl2_entries, descending=True,
            is_final=is_final, is_seen=is_seen, presorted=True)
        self.sl3 = SegmentSourceList(
            self.engine._sl3_entries, descending=False,
            is_final=is_final, is_seen=is_seen, presorted=True)
        self._lists = {"SL1": self.sl1, "SL2": self.sl2, "SL3": self.sl3}

    def _store_setup(self) -> None:
        """Bind the layout, signature bindings, mass slots and scratch.

        With a session every piece is pooled: the bindings and slot memo
        are computed once per signature and the scratch store is recycled
        run-to-run, so a warm query allocates no columns at all.
        """
        layout = self.engine.store_layout(self.eps)
        self._layout = layout
        session = self.session
        if session is not None:
            self._bind = session.store_bindings(layout)
            self._mass_slots = session.store_mass_slots(layout, self.weighted)
            store, reused = session.acquire_state_store(layout)
            self.stats.store_reused = reused
        else:
            self._bind = SignatureBindings(layout, self._cell_ub)
            self._mass_slots = MassSlots(layout.num_slots)
            store = SegmentStateStore(layout)
        store.begin_run()
        self.store = store

    def _store_is_seen(self, segment_id: int) -> bool:
        return segment_id in self.store.seen_ids

    def _store_is_final(self, segment_id: int) -> bool:
        return segment_id in self.store.final_ids

    # -- phase 2: filtering --------------------------------------------------

    _CHECK_EVERY = 4
    """Termination-test frequency.  Testing LBk >= UB on every access costs
    more than the few extra accesses a delayed test allows, and a delayed
    test is conservative (it can only keep filtering longer)."""

    def _filter(self) -> None:
        cycle = self.strategy.cycle
        ncycle = len(cycle)
        position = 0
        stats = self.stats
        monitor = self._monitor
        check_every = self._CHECK_EVERY
        # Hot loop: the attribute chains below are loop-invariant, so they
        # are hoisted into locals (the warm-session profile is dominated by
        # this loop's per-access bookkeeping, not by mass kernels).
        # Tracing likewise binds once: the untraced access method when off,
        # so the disabled path pays nothing per access.
        tracing = obs_tracer.ENABLED
        plain_access = self._access
        if tracing:
            def access(name: str, _plain=plain_access) -> bool:
                with trace_span("soi.pull", source=name):
                    return _plain(name)
        else:
            access = plain_access
        alternate = (self.strategy is AccessStrategy.ALTERNATE
                     and self._sl2_threshold > 0)
        sl2_top = self.sl2.top
        sl2_threshold = self._sl2_threshold
        while True:
            if stats.iterations % check_every == 0:
                stats.termination_checks += 1
                if tracing:
                    with trace_span("soi.termination_check"):
                        lbk = self._compute_lbk()
                        ub = self._compute_ub()
                else:
                    lbk = self._compute_lbk()
                    ub = self._compute_ub()
                if monitor is not None:
                    monitor.observe_threshold(lbk, ub)
                if lbk >= ub:
                    break
            accessed = False
            if alternate:
                top2 = sl2_top()
                if top2 is not None and top2 > sl2_threshold:
                    accessed = access("SL2")
            for offset in range(ncycle):
                if accessed:
                    break
                name = cycle[(position + offset) % ncycle]
                if access(name):
                    position = (position + offset + 1) % ncycle
                    accessed = True
            if not accessed:
                # Preferred lists drained; fall back to any remaining list.
                for name in ("SL1", "SL2", "SL3"):
                    if access(name):
                        accessed = True
                        break
            if not accessed:
                break
            stats.iterations += 1

    def _compute_lbk(self) -> float:
        """Current LBk; recomputed lazily and at most every few iterations.

        Using a slightly stale (hence smaller) LBk in the termination test
        is conservative — it can only delay termination, never cause a
        wrong result — so even the O(log k) threshold read is throttled,
        preserving the exact refresh cadence of the old full rescan.
        """
        if not self._lbk_dirty or self.stats.iterations % 8 != 0:
            return self._lbk
        current = self._lbk_topk.current()
        if current is not None:
            self._lbk = current
        self._lbk_dirty = False
        return self._lbk

    def _compute_ub(self) -> float:
        top_cells = self.sl1.top()
        top_count = self.sl2.top()
        top_length = self.sl3.top()
        if top_count is None or top_length is None:
            return 0.0  # no unseen segments remain
        mass_ub = top_cells * top_count * self._weight_cap
        return mass_ub / buffer_area(top_length, self.eps)

    # -- phases 2 and 3 over the segment state store -----------------------
    #
    # Seen/final/visited flags, partial masses and remaining upper bounds
    # live in the SegmentStateStore columns (see the state_store module
    # docs).  A segment's mass always accumulates its cells in
    # cells_of_segment order, so every run, cold or warm, produces the
    # same floats; tests/oracle.py is the definitional reference.

    def _access(self, name: str) -> bool:
        """Perform one access on the named list; False when exhausted."""
        if name == "SL1":
            cell = self.sl1.pop()
            if cell is None:
                return False
            self.stats.cells_popped += 1
            self._store_visit_cell(cell)
            return True
        source: SegmentSourceList = self._lists[name]
        segment_id = source.pop()
        if segment_id is None:
            return False
        self.stats.segments_popped += 1
        self._store_finalize(self._layout.dense_index[segment_id])
        return True

    def _store_visit_cell(self, cell: CellCoord) -> None:
        """The paper's ``UpdateInterest(l, c, Psi)`` for every ``l`` in
        ``L_eps(c)`` of a popped cell.

        Per ``(segment, slot)`` pair in ``cell_group`` order: mark visited,
        init-if-fresh, decrement ``to_visit``, add the slot mass (memoised
        or freshly computed), record the street lower bound, finalise on
        zero ``to_visit`` — driven by Python ints against the flat columns
        (cell groups hold only a handful of segments, see the state_store
        module docs).  Cells holding no relevant POI are ticked off without
        touching the POI data.
        """
        layout = self._layout
        seg_list, slot_list = layout.cell_group(cell)
        if not seg_list:
            return
        store = self.store
        stats = self.stats
        epoch = store.epoch
        visit_epoch = store.visit_epoch
        seen_epoch = store.seen_epoch
        final_epoch = store.final_epoch
        to_visit = store.to_visit
        mass_col = store.mass
        remaining = store.remaining_ub
        total_ub = self._bind.total_ub_list
        cell_counts = layout.cell_counts_list
        seg_ids = layout.seg_ids_list
        street_list = layout.street_list
        buffer_list = layout.buffer_list
        lengths_list = layout.lengths_list
        mass_slots = self._mass_slots
        slot_known = mass_slots.known
        slot_mass = mass_slots.mass
        active = store.active
        seen_ids = store.seen_ids
        final_ids = store.final_ids
        topk = self._lbk_topk
        cell_ub = self._cell_ub.get(cell, 0)
        relevant = cell_ub > 0
        checking = contracts.ENABLED
        for dense, slot in zip(seg_list, slot_list):
            if visit_epoch[slot] == epoch:
                continue
            visit_epoch[slot] = epoch
            stats.cell_visits += 1
            if seen_epoch[dense] != epoch:
                seen_epoch[dense] = epoch
                mass_col[dense] = 0.0
                remaining[dense] = total_ub[dense]
                to_visit[dense] = cell_counts[dense]
                active.append(dense)
                seen_ids.add(seg_ids[dense])
                stats.segments_seen += 1
            to_visit[dense] -= 1
            if relevant:
                if slot_known[slot]:
                    stats.mass_cache_hits += 1
                    value = slot_mass[slot]
                else:
                    value = segment_mass_in_cell(
                        layout.segments[dense], cell, self.cache, self.eps,
                        self.weighted, stats)
                    slot_mass[slot] = value
                    slot_known[slot] = True
                    if self._count_memo:
                        stats.mass_cache_misses += 1
                new_mass = mass_col[dense] + value
                mass_col[dense] = new_mass
                remaining[dense] -= cell_ub
                if new_mass > 0.0:
                    if checking:
                        contracts.check_definition2(
                            new_mass, lengths_list[dense], self.eps)
                    if topk.update(street_list[dense],
                                   new_mass / buffer_list[dense]):
                        stats.lbk_heap_updates += 1
                        self._lbk_dirty = True
            if to_visit[dense] == 0:
                # An unvisited slot implies the segment was not yet final,
                # so this zero crossing is its (single) finalisation.
                final_epoch[dense] = epoch
                final_ids.add(seg_ids[dense])
                stats.segments_finalized_in_filter += 1

    def _store_record_bound(self, dense: int) -> None:
        """Record a segment's current interest as its street's lower bound.

        A zero mass is skipped: zero-interest streets are never reported,
        so they cannot raise LBk.
        """
        store = self.store
        mass = store.mass[dense]
        if mass <= 0.0:
            return
        layout = self._layout
        if contracts.ENABLED:
            contracts.check_definition2(
                mass, layout.lengths_list[dense], self.eps)
        value = mass / layout.buffer_list[dense]
        if self._lbk_topk.update(layout.street_list[dense], value):
            self.stats.lbk_heap_updates += 1
            self._lbk_dirty = True

    def _store_ensure_seen(self, dense: int) -> None:
        store = self.store
        epoch = store.epoch
        if store.seen_epoch[dense] == epoch:
            return
        layout = self._layout
        store.seen_epoch[dense] = epoch
        store.mass[dense] = 0.0
        store.remaining_ub[dense] = self._bind.total_ub_list[dense]
        store.to_visit[dense] = layout.cell_counts_list[dense]
        store.active.append(dense)
        store.seen_ids.add(layout.seg_ids_list[dense])
        self.stats.segments_seen += 1

    def _store_visit_rest(self, dense: int) -> None:
        """Visit every remaining cell of a segment with one batched kernel.

        The unvisited slots come out of the CSR slice in ascending slot
        order, the canonical ``cells_of_segment`` order, so the mass
        accumulates exactly as a cell-by-cell visit would.
        """
        store = self.store
        layout = self._layout
        epoch = store.epoch
        start = int(layout.slot_offsets[dense])
        stop = int(layout.slot_offsets[dense + 1])
        if stop == start:
            return
        mass_slots = self._mass_slots
        # Mark visited and split the relevant slots into memoised vs fresh
        # in one walk of the segment's slot run.
        visit_epoch = store.visit_epoch
        slot_relevant = self._bind.slot_relevant_list
        slot_known = mass_slots.known
        rel_list: list[int] = []
        count = 0
        all_known = True
        for slot in range(start, stop):
            if visit_epoch[slot] == epoch:
                continue
            visit_epoch[slot] = epoch
            count += 1
            if slot_relevant[slot]:
                rel_list.append(slot)
                if not slot_known[slot]:
                    all_known = False
        if count:
            self.stats.cell_visits += count
        if not rel_list:
            return
        if all_known:
            # Warm fast path: every contribution is memoised; accumulate
            # the slot run in cell order.
            self.stats.mass_cache_hits += len(rel_list)
            slot_mass = mass_slots.mass
            added = 0.0
            for slot in rel_list:
                added += slot_mass[slot]
        else:
            slot_cells = layout.slot_cells
            added = segment_mass_batched_slots(
                layout.segments[dense],
                [slot_cells[slot] for slot in rel_list], rel_list,
                mass_slots.mass, mass_slots.known, self.cache,
                self.eps, self.weighted, stats=self.stats,
                count_memo=self._count_memo)
        store.mass[dense] = store.mass[dense] + added

    def _store_finalize(self, dense: int) -> None:
        """Filter-phase finalisation: visit the rest, mark final, record LB.

        Recording the lower bound once with the final mass subsumes the
        per-cell records (the street bound keeps the maximum, and mass
        only grows).
        """
        self._store_ensure_seen(dense)
        store = self.store
        self._store_visit_rest(dense)
        store.to_visit[dense] = 0
        store.remaining_ub[dense] = 0
        epoch = store.epoch
        if store.final_epoch[dense] != epoch:
            store.final_epoch[dense] = epoch
            store.final_ids.add(self._layout.seg_ids_list[dense])
            self.stats.segments_finalized_in_filter += 1
        self._store_record_bound(dense)

    def _store_finalize_exact(self, dense: int) -> None:
        """Refinement finalisation: no LB record, no filter counter."""
        store = self.store
        self._store_visit_rest(dense)
        store.to_visit[dense] = 0
        store.remaining_ub[dense] = 0
        store.final_epoch[dense] = store.epoch
        store.final_ids.add(self._layout.seg_ids_list[dense])

    def _refine(self) -> list[SOIResult]:
        """Exact interests of the seen segments, then the top-k streets.

        Partial segments are finalised in decreasing optimistic-interest
        order; with ``prune_refinement`` the rest are skipped once the
        optimistic bound falls below the k-th best exact street.
        """
        layout = self._layout
        store = self.store
        epoch = store.epoch
        eps = self.eps
        seg_ids = layout.seg_ids_list
        street_of = layout.street_list
        lengths = layout.lengths_list
        buffer_col = layout.buffer_list
        mass_col = store.mass
        final_col = store.final_epoch
        remaining_col = store.remaining_ub
        weight_cap = self._weight_cap
        # street_id -> (exact interest, best segment id).  The incremental
        # threshold tracks the k-th best exact value so the pruning test
        # needs no nlargest rescan per candidate.
        exact: dict[int, tuple[float, int]] = {}
        exact_topk = TopKThreshold(self.k)

        def record_exact(dense: int) -> None:
            mass = float(mass_col[dense])
            if contracts.ENABLED:
                contracts.check_definition2(mass, lengths[dense], eps)
            value = mass / buffer_col[dense]
            street_id = street_of[dense]
            best = exact.get(street_id)
            if best is None or value > best[0]:
                exact[street_id] = (value, seg_ids[dense])
                exact_topk.update(street_id, value)

        partial: list[tuple[float, int, int]] = []
        for dense in store.active:
            if final_col[dense] == epoch:
                record_exact(dense)
                continue
            remaining_ub = int(remaining_col[dense]) * weight_cap
            if remaining_ub == 0:
                # The unvisited cells hold no relevant POIs: mass is exact.
                store.to_visit[dense] = 0
                final_col[dense] = epoch
                store.final_ids.add(seg_ids[dense])
                record_exact(dense)
                continue
            optimistic = segment_interest(
                float(mass_col[dense]) + remaining_ub,
                lengths[dense], eps)
            partial.append((optimistic, seg_ids[dense], dense))

        partial.sort(key=lambda item: (-item[0], item[1]))
        for index, (optimistic, _sid, dense) in enumerate(partial):
            if self.prune_refinement:
                kth = exact_topk.current()
                if kth is not None and optimistic < kth:
                    self.stats.refinement_pruned += len(partial) - index
                    break
            self._store_finalize_exact(dense)
            record_exact(dense)
            self.stats.refinement_finalized += 1

        ranked = sorted(
            ((value, street_id, seg_id)
             for street_id, (value, seg_id) in exact.items() if value > 0),
            key=lambda item: (-item[0], item[1]))
        network = self.engine.network
        return [
            SOIResult(street_id=street_id,
                      street_name=network.street(street_id).name,
                      interest=value,
                      best_segment_id=seg_id)
            for value, street_id, seg_id in ranked[: self.k]
        ]
