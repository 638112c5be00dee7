"""Array-native segment state for the SOI filter phase.

The filter loop of Algorithm 1 used to track every *seen* segment in a
``dict[int, _SegmentState]`` of per-object attributes.  This module holds
the columnar replacement: a dense segment-id mapping (the same iteration
order the snapshot schema records) indexes flat columns for partial mass,
the Definition 2 buffer-area denominator, the visited-cell progress and
the remaining per-cell upper-bound contribution.

The immutable layout and per-signature columns are NumPy arrays — they
are *built* vectorised (one ufunc for every buffer area, one ``bincount``
for every segment's total upper bound, one row-wise distance pass per
layout for every within-``eps`` ``(slot, POI)`` pair, which every slot
mass then reads) and mirrored to Python lists for element-wise reads.
The mutable run scratch and Algorithm 1's view of the slot masses
(built on its first read) are plain Python lists: profiling the street
grids shows a popped cell touches only 2–8 segments and a finalised
segment ~10 slots, far below NumPy's per-call dispatch break-even, so
the filter loop is driven by list indexing while the heavy lifting (the
mass pass, column construction) stays batched.

Layout vs. scratch
------------------
* :class:`StoreLayout` is immutable and engine-owned, one per ``eps``:
  dense columns plus the CSR of ``(segment, cell)`` *slots* and its
  cell-major inverse, and the layout's :class:`SlotIncidence`, the only
  caller of the distance kernel
  (:func:`~repro.geometry.distance.points_segments_within`): one call
  when the layout's first slot-mass pass (or a snapshot attach, for a
  warm ``eps``) builds it.
* :class:`SignatureBindings` and :class:`MassSlots` are per keyword
  signature (the latter also per ``weighted``), normally owned by a
  :class:`~repro.perf.session.QuerySession`: the cell upper bounds of
  Algorithm 1 line 2 projected onto the layout, and every
  ``(segment, cell)`` slot's mass, materialised by
  :func:`~repro.core.interest.materialise_slot_masses`.
* :class:`SegmentStateStore` is mutable per-run scratch, recycled across
  runs through an epoch counter so a warm query allocates nothing.

Every materialised float is the bitwise-exact value a fresh evaluation
computes.  A segment's partial mass is a running sum in SL1 pop order and
serves only as a bound; its exact mass is settled as the sum of its slot
masses in ``cells_of_segment`` order, the order BL sums in.  Cold and
warm runs, and runs at any ``k``, therefore return bit-identical results
(``tests/oracle.py`` is the definitional reference).

:class:`TopKThreshold` is the incremental LB_k maintenance of the filter
and refinement phases: a bounded min-heap over per-street best values
replaces the ``heapq.nlargest`` full rescan of every termination check.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.geometry.distance import points_segments_within
from repro.index.csr import counts_to_offsets
from repro.obs.tracer import trace_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.source_lists import CellBounds
    from repro.index.cell_maps import SegmentCellMaps
    from repro.index.grid import CellCoord
    from repro.index.poi_grid import POIGridIndex
    from repro.network.model import RoadNetwork, Segment

__all__ = [
    "MassSlots",
    "SegmentStateStore",
    "SignatureBindings",
    "SlotIncidence",
    "StoreLayout",
    "TopKThreshold",
]


class TopKThreshold:
    """Exact k-th largest of per-key values that only ever increase.

    The SOI termination bound LB_k is the k-th largest of the per-street
    best lower bounds, and each street's best only grows as mass
    accumulates.  That monotonicity makes a bounded min-heap with lazy
    deletion exact: an improved value is pushed and the superseded entry
    goes *stale*, but a stale entry is always smaller than its key's live
    value, so stale entries surface at the min end first and pruning only
    at the top keeps ``current()`` the true k-th largest — the same float
    ``heapq.nlargest(k, values)[-1]`` would return, in O(log k) per
    update instead of an O(n log k) rescan.
    """

    __slots__ = ("k", "_best", "_heap", "_in_heap")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self.k = k
        self._best: dict[int, float] = {}
        self._heap: list[tuple[float, int]] = []
        # key -> value currently live in the heap; entries in ``_heap``
        # that disagree with this map are stale.
        self._in_heap: dict[int, float] = {}

    def update(self, key: int, value: float) -> bool:
        """Record ``value`` for ``key``; True when it improved the best.

        The return value is the predicate ``value > best.get(key, 0.0)``;
        callers use it as their LB_k dirty flag.
        """
        best = self._best.get(key, 0.0)
        if value <= best:
            return False
        self._best[key] = value
        in_heap = self._in_heap
        heap = self._heap
        if key in in_heap:
            in_heap[key] = value
            heapq.heappush(heap, (value, key))
        elif len(in_heap) < self.k:
            in_heap[key] = value
            heapq.heappush(heap, (value, key))
        else:
            self._prune()
            floor_value, floor_key = heap[0]
            if value > floor_value:
                in_heap[key] = value
                heapq.heapreplace(heap, (value, key))
                del in_heap[floor_key]
        if len(heap) > 4 * self.k + 64:
            # Compact: rebuild from the live entries only.  Purely an
            # allocation bound; the pruned heap is value-identical.
            self._heap = [(v, k) for k, v in in_heap.items()]
            heapq.heapify(self._heap)
        return True

    def _prune(self) -> None:
        heap = self._heap
        in_heap = self._in_heap
        while heap and in_heap.get(heap[0][1]) != heap[0][0]:
            heapq.heappop(heap)

    def current(self) -> float | None:
        """The k-th largest recorded value; ``None`` below k distinct keys."""
        if len(self._in_heap) < self.k:
            return None
        self._prune()
        return self._heap[0][0]

    def __len__(self) -> int:
        """Number of distinct keys recorded so far."""
        return len(self._best)


class StoreLayout:
    """Immutable dense/CSR geometry of one ``(engine, eps)`` pair.

    Dense position = the engine's ``network.iter_segments()`` order (the
    order the snapshot exporter records), so a layout rebuilt over an
    attached snapshot indexes identically.  A *slot* is one
    ``(segment, cell)`` incidence of the ``eps``-augmented cell maps;
    ``slot_offsets[d]:slot_offsets[d+1]`` spans segment ``d``'s cells in
    ``cells_of_segment`` order.  ``cells`` lists the cells in order of
    first appearance in that slot stream, and :meth:`cell_group` inverts
    the CSR: the ``(dense segments, slots)`` of a cell in ascending slot
    order, i.e. ``L_eps(c)``.  The cell maps' CSR rows must follow the
    same ``iter_segments`` order, as every :class:`SegmentCellMaps` does.
    """

    __slots__ = (
        "eps", "segments", "num_segments", "seg_ids", "lengths",
        "street_of", "street_name_of", "buffer_col", "endpoints",
        "dense_index", "num_slots",
        "num_cells", "cells", "cell_index", "slot_offsets",
        "slot_cell", "slot_seg", "cell_counts", "cell_slots",
        "seg_ids_list", "street_list", "lengths_list", "buffer_list",
        "cell_counts_list", "_sorted_lin", "_sorted_pos", "_group_offsets",
        "_group_segs", "_group_slots", "_groups", "_incidence",
    )

    def __init__(self, network: "RoadNetwork",
                 cell_maps: "SegmentCellMaps", eps: float) -> None:
        self.eps = eps
        segments: list["Segment"] = list(network.iter_segments())
        n = len(segments)
        self.segments = segments
        self.num_segments = n
        self.seg_ids = np.fromiter((seg.id for seg in segments),
                                   dtype=np.int64, count=n)
        self.lengths = np.fromiter((seg.length for seg in segments),
                                   dtype=np.float64, count=n)
        self.street_of = np.fromiter((seg.street_id for seg in segments),
                                     dtype=np.int64, count=n)
        # Object column of street names, so a ranking gathers its rows'
        # names in one take.
        street = network.street
        self.street_name_of = np.array(
            [street(seg.street_id).name for seg in segments], dtype=object)
        # Definition 2 denominator column.  Evaluated as
        # (2.0 * eps) * length + (math.pi * eps) * eps — the exact
        # association Python gives buffer_area(), so each element is the
        # bitwise float buffer_area() returns.
        self.buffer_col = (2.0 * eps) * self.lengths + (math.pi * eps) * eps
        # (ax, ay, bx, by) columns in dense order, shared with the maps.
        self.endpoints = cell_maps.endpoint_columns
        self.dense_index = {seg.id: pos for pos, seg in enumerate(segments)}
        # Python-list mirrors of the read-only columns for the small-group
        # element-wise path: grid cells overlap only a couple of segments
        # each, and at that size a list index beats a NumPy scalar index
        # several-fold.  tolist() round-trips float64 exactly, so the
        # mirrored values are the same bits.
        self.seg_ids_list = [seg.id for seg in segments]
        self.street_list = [seg.street_id for seg in segments]
        self.lengths_list = self.lengths.tolist()
        self.buffer_list = self.buffer_col.tolist()

        offsets, flat_i, flat_j = cell_maps.augmented_csr(eps)
        self._init_cells_from_csr(cell_maps.grid.ny, offsets, flat_i, flat_j)
        self._incidence: SlotIncidence | None = None

    def _init_cells_from_csr(self, ny: int, offsets: np.ndarray,
                             flat_i: np.ndarray,
                             flat_j: np.ndarray) -> None:
        """Slot geometry from the flat CSR pair columns: cells numbered by
        first appearance in the slot stream, the cell-major inverse kept
        as one CSR for :meth:`cell_group`, and the cells' linearised
        ``i * ny + j`` in ascending order for :meth:`locate_cells`."""
        n = self.num_segments
        lin = flat_i * np.int64(ny) + flat_j
        uniq, first_idx, inverse = np.unique(
            lin, return_index=True, return_inverse=True)
        num_cells = int(uniq.shape[0])
        rank = np.argsort(first_idx, kind="stable")
        inv_rank = np.empty(num_cells, dtype=np.int64)
        inv_rank[rank] = np.arange(num_cells, dtype=np.int64)
        slot_cell = inv_rank[inverse.reshape(-1)]
        cells: list["CellCoord"] = [
            (int(key) // ny, int(key) % ny) for key in uniq[rank].tolist()]  # repro-lint: disable=REP-N202 (ny is a grid dimension, >= 1 by UniformGrid construction)
        seg_col = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        slot_order = np.argsort(slot_cell, kind="stable")
        self.num_slots = int(lin.shape[0])
        self.num_cells = num_cells
        self.cells = cells
        self._sorted_lin = uniq
        self._sorted_pos = inv_rank
        self.cell_index = {cell: pos for pos, cell in enumerate(cells)}
        self.slot_offsets = np.asarray(offsets, dtype=np.int64)
        self.slot_cell = slot_cell
        self.slot_seg = seg_col
        self.cell_counts = np.diff(self.slot_offsets)
        self.cell_counts_list = self.cell_counts.tolist()
        self.cell_slots = np.bincount(slot_cell, minlength=num_cells)
        self._group_offsets = counts_to_offsets(self.cell_slots).tolist()
        self._group_segs = seg_col[slot_order]
        self._group_slots = slot_order
        self._groups: dict["CellCoord", tuple[list[int], list[int]]] = {}

    def locate_cells(
            self, lin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which of the linearised cells ``lin`` the layout holds, as a
        mask over ``lin``, and those cells' layout positions in ``lin``
        order.
        """
        if not (lin.shape[0] and self.num_cells):
            return (np.zeros(lin.shape[0], dtype=bool),
                    np.zeros(0, dtype=np.int64))
        pos = np.minimum(np.searchsorted(self._sorted_lin, lin),
                         self.num_cells - 1)
        found = self._sorted_lin[pos] == lin
        return found, self._sorted_pos[pos[found]]

    def poi_incidence(self, poi_index: "POIGridIndex") -> "SlotIncidence":
        """The layout's within-``eps`` :class:`SlotIncidence` over the
        engine's POI index, built on the first call.

        A layout belongs to one engine, so every call passes the same
        index.  Add-only: concurrent first calls store equal incidences.
        """
        incidence = self._incidence
        if incidence is None:
            with trace_span("index.slot_incidence", eps=self.eps):
                incidence = SlotIncidence(self, poi_index)
            self._incidence = incidence
        return incidence

    def cell_group(self, cell: "CellCoord") -> tuple[Sequence[int],
                                                     Sequence[int]]:
        """``L_eps(c)``: the cell's ``(dense segments, slots)`` in
        ascending slot order; empty for a cell no segment reaches.

        Built on the cell's first visit and kept as Python lists — the
        groups are tiny (a street grid's cell overlaps a handful of
        segments), so the filter walks them element-wise.  Add-only:
        concurrent first visits store equal groups.
        """
        group = self._groups.get(cell)
        if group is None:
            pos = self.cell_index.get(cell)
            if pos is None:
                return _NO_GROUP
            begin = self._group_offsets[pos]
            end = self._group_offsets[pos + 1]
            group = (self._group_segs[begin:end].tolist(),
                     self._group_slots[begin:end].tolist())
            self._groups[cell] = group
        return group


_NO_GROUP: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())


class SlotIncidence:
    """Every ``(slot, POI)`` pair of one :class:`StoreLayout` whose POI
    lies in the slot's cell and within ``eps`` of the slot's segment,
    whatever the POI's keywords.

    Definition 1 filters POIs by keyword and by distance; only the
    keyword test depends on the query, so one
    :func:`~repro.geometry.distance.points_segments_within` pass over
    every ``(slot, POI of the slot's cell)`` pair settles the distance
    test for all queries at the layout's ``eps``, as the
    ``eps``-augmented maps of Section 3.2.1 settle the cell geometry.

    * ``slot``, ``poi``: int32 row columns, slot-major with POI
      positions ascending within a slot — the order a weighted mass
      sums its weights in.  A pair whose ``np.hypot``-rounded distance
      exceeds ``eps`` has no row.
    * ``poi_cell``: the layout cell of every POI position, int32, -1 for
      a POI in no cell of the layout.
    """

    __slots__ = ("slot", "poi", "poi_cell")

    def __init__(self, layout: StoreLayout,
                 poi_index: "POIGridIndex") -> None:
        found, at = layout.locate_cells(poi_index.cell_lin)
        poi_cell = np.full(found.shape[0], -1, dtype=np.int32)
        poi_cell[found] = at
        # POI positions grouped by layout cell, ascending within each
        # cell (a stable sort of ascending positions).
        by_cell = np.flatnonzero(found)[np.argsort(at, kind="stable")]
        cell_n = np.bincount(at, minlength=layout.num_cells)
        cell_start = np.cumsum(cell_n) - cell_n
        n = cell_n[layout.slot_cell]
        row_slot = np.repeat(np.arange(layout.num_slots, dtype=np.int64), n)
        rank = (np.arange(row_slot.shape[0], dtype=np.int64)
                - np.repeat(np.cumsum(n) - n, n))
        row_poi = by_cell[np.repeat(cell_start[layout.slot_cell], n) + rank]
        row_seg = layout.slot_seg[row_slot]
        ax, ay, bx, by = (column[row_seg] for column in layout.endpoints)
        pois = poi_index.pois
        within = points_segments_within(
            pois.xs[row_poi], pois.ys[row_poi], ax, ay, bx, by, layout.eps)
        self.slot = row_slot[within].astype(np.int32)
        self.poi = row_poi[within].astype(np.int32)
        self.poi_cell = poi_cell


class SignatureBindings:
    """One keyword signature's cell upper bounds projected onto a layout.

    ``cell_ub[c]`` is ``|P_Psi(c)|`` (Algorithm 1, line 2) for the
    layout's cells (cells the signature never populates stay 0), and
    ``total_ub[d]`` the per-segment sum over ``C_eps(l)`` — the starting
    value of the incrementally-decremented remaining upper-bound column.
    """

    __slots__ = ("layout", "cell_ub", "total_ub", "total_ub_list")

    def __init__(self, layout: StoreLayout, bounds: "CellBounds") -> None:
        self.layout = layout
        found, at = layout.locate_cells(bounds.lin)
        cell_ub = np.zeros(layout.num_cells, dtype=np.int64)
        cell_ub[at] = bounds.ub[found]
        self.cell_ub = cell_ub
        # bincount sums small integer counts in float64 — exact far below
        # 2**53 — and unlike add.reduceat has no empty-run pitfall for
        # segments with zero cells.
        self.total_ub = np.bincount(
            layout.slot_seg,
            weights=cell_ub[layout.slot_cell].astype(np.float64),
            minlength=layout.num_segments).astype(np.int64)
        self.total_ub_list = self.total_ub.tolist()


class MassSlots:
    """Every ``(segment, cell)`` slot's mass for one
    ``(signature, eps, weighted)``, as materialised by
    :func:`~repro.core.interest.materialise_slot_masses`.

    ``mass_col`` is the pass's float64 column: 0.0 for every slot whose
    cell has no relevant POI.  The whole-layout reductions of the BL
    ranking, which serve every k-SOI request, read only it and
    ``num_relevant``, the number of slots whose cell has a relevant POI
    (``relevant_cells`` masks those cells).  Algorithm 1 reads the same
    masses as the Python list ``mass`` and ``seg_relevant[d]``, the
    relevant slots of dense segment ``d``: every read of Algorithm 1 is
    a single-slot probe or a short per-segment run, where list indexing
    beats NumPy scalar indexing severalfold (see the module docstring).
    Both lists are built on Algorithm 1's first read.  The masses never
    change after the pass, so sessions share one instance between
    concurrent runs; two first reads racing build equal lists.
    """

    __slots__ = ("mass_col", "num_relevant", "_layout", "_relevant_cells",
                 "_mass", "_seg_relevant")

    def __init__(self, mass_col: np.ndarray, layout: StoreLayout,
                 relevant_cells: np.ndarray) -> None:
        self.mass_col = mass_col
        self.num_relevant = int(layout.cell_slots[relevant_cells].sum())
        self._layout = layout
        self._relevant_cells = relevant_cells
        self._mass: list[float] | None = None
        self._seg_relevant: list[int] | None = None

    @property
    def mass(self) -> list[float]:
        if self._mass is None:
            # Zero slots share one 0.0 object: a session holds one list
            # per (eps, weighted), and most slots of a layout hold no mass.
            values = [0.0] * self.mass_col.shape[0]
            positive = np.flatnonzero(self.mass_col)
            for slot, value in zip(positive.tolist(),
                                   self.mass_col[positive].tolist()):
                values[slot] = value
            self._mass = values
        return self._mass

    @property
    def seg_relevant(self) -> list[int]:
        if self._seg_relevant is None:
            layout = self._layout
            relevant = self._relevant_cells[layout.slot_cell]
            self._seg_relevant = np.bincount(
                layout.slot_seg[relevant],
                minlength=layout.num_segments).tolist()
        return self._seg_relevant


_EPOCH_LIMIT = 2**31 - 2
"""Epoch wrap guard (kept at the int32 bound so the columns could be
re-materialised as int32 arrays without a semantic change)."""


class SegmentStateStore:
    """Reusable per-run scratch columns over one :class:`StoreLayout`.

    ``begin_run`` bumps ``epoch`` instead of clearing: a segment is
    *seen*/*final* in the current run iff its epoch column matches, and a
    slot is *visited* likewise, so recycling the store across queries is
    O(1).  ``active`` lists seen segments (dense ids) in first-seen order
    — the iteration order the refinement phase relies on.
    """

    __slots__ = ("layout", "mass", "remaining_ub", "to_visit", "seen_epoch",
                 "final_epoch", "visit_epoch", "epoch", "active",
                 "seen_ids", "final_ids", "runs_served")

    def __init__(self, layout: StoreLayout) -> None:
        n = layout.num_segments
        self.layout = layout
        self.mass: list[float] = [0.0] * n
        self.remaining_ub: list[int] = [0] * n
        self.to_visit: list[int] = [0] * n
        self.seen_epoch: list[int] = [0] * n
        self.final_epoch: list[int] = [0] * n
        self.visit_epoch: list[int] = [0] * layout.num_slots
        self.epoch = 0
        self.active: list[int] = []
        # Plain-set mirrors of the epoch columns, keyed by *segment id*:
        # the source-list is_seen/is_final predicates run in tight scan
        # loops where a set probe beats a NumPy scalar index.
        self.seen_ids: set[int] = set()
        self.final_ids: set[int] = set()
        self.runs_served = 0

    def begin_run(self) -> None:
        """Start a fresh run over the recycled columns."""
        if self.epoch >= _EPOCH_LIMIT:
            self.seen_epoch = [0] * len(self.seen_epoch)
            self.final_epoch = [0] * len(self.final_epoch)
            self.visit_epoch = [0] * len(self.visit_epoch)
            self.epoch = 0
        self.epoch += 1
        self.active = []
        self.seen_ids = set()
        self.final_ids = set()
        self.runs_served += 1
