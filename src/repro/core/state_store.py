"""Array-native segment state for the SOI filter phase.

The filter loop of Algorithm 1 used to track every *seen* segment in a
``dict[int, _SegmentState]`` of per-object attributes.  This module holds
the columnar replacement: a dense segment-id mapping (the same iteration
order the snapshot schema records) indexes flat columns for partial mass,
the Definition 2 buffer-area denominator, the visited-cell progress and
the remaining per-cell upper-bound contribution.

The immutable layout and per-signature columns are NumPy arrays — they
are *built* vectorised (one ufunc for every buffer area, one ``bincount``
for every segment's total upper bound) and mirrored to Python lists for
element-wise reads.  The mutable run scratch and the slot mass memo are
plain Python lists: profiling the street grids shows a popped cell
touches only 2–8 segments and a finalised segment ~10 slots, far below
NumPy's per-call dispatch break-even, so the filter loop is driven by
list indexing while the heavy lifting (mass kernels, column
construction) stays batched.

Layout vs. scratch
------------------
* :class:`StoreLayout` is immutable and engine-owned, one per ``eps``:
  dense columns plus the CSR of ``(segment, cell)`` *slots* and its
  cell-major inverse.
* :class:`SignatureBindings` and :class:`MassSlots` are per keyword
  signature (the latter also per ``weighted``), normally owned by a
  :class:`~repro.perf.session.QuerySession`: the cell upper bounds of
  Algorithm 1 line 2 projected onto the layout, and the slot-indexed
  ``(segment, cell)`` mass memo.
* :class:`SegmentStateStore` is mutable per-run scratch, recycled across
  runs through an epoch counter so a warm query allocates nothing.

Every cached float is the bitwise-exact value a fresh evaluation
computes, and each segment's mass accumulates its slots in
``cells_of_segment`` order, so cold and warm runs return bit-identical
results (``tests/oracle.py`` is the definitional reference).

:class:`TopKThreshold` is the incremental LB_k maintenance of the filter
and refinement phases: a bounded min-heap over per-street best values
replaces the ``heapq.nlargest`` full rescan of every termination check.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.index.csr import counts_to_offsets

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.index.cell_maps import SegmentCellMaps
    from repro.index.grid import CellCoord
    from repro.network.model import RoadNetwork, Segment

__all__ = [
    "MassSlots",
    "SegmentStateStore",
    "SignatureBindings",
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
        "street_of", "buffer_col", "dense_index", "num_slots", "num_cells",
        "cells", "cell_index", "slot_offsets", "slot_cell", "slot_cells",
        "cell_counts", "seg_ids_list", "street_list", "lengths_list",
        "buffer_list", "cell_counts_list", "_group_offsets", "_group_segs",
        "_group_slots", "_groups",
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
        # Definition 2 denominator column.  Evaluated as
        # (2.0 * eps) * length + (math.pi * eps) * eps — the exact
        # association Python gives buffer_area(), so each element is the
        # bitwise float buffer_area() returns.
        self.buffer_col = (2.0 * eps) * self.lengths + (math.pi * eps) * eps
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

    def _init_cells_from_csr(self, ny: int, offsets: np.ndarray,
                             flat_i: np.ndarray,
                             flat_j: np.ndarray) -> None:
        """Slot geometry from the flat CSR pair columns: cells numbered by
        first appearance in the slot stream, the cell-major inverse kept
        as one CSR for :meth:`cell_group`."""
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
        self.cell_index = {cell: pos for pos, cell in enumerate(cells)}
        self.slot_offsets = np.asarray(offsets, dtype=np.int64)
        self.slot_cell = slot_cell
        self.slot_cells = [cells[pos] for pos in slot_cell.tolist()]
        self.cell_counts = np.diff(self.slot_offsets)
        self.cell_counts_list = self.cell_counts.tolist()
        self._group_offsets = counts_to_offsets(
            np.bincount(slot_cell, minlength=num_cells)).tolist()
        self._group_segs = seg_col[slot_order]
        self._group_slots = slot_order
        self._groups: dict["CellCoord", tuple[list[int], list[int]]] = {}

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


class SignatureBindings:
    """One keyword signature's cell upper bounds projected onto a layout.

    ``cell_ub[c]`` is ``|P_Psi(c)|`` (Algorithm 1, line 2) for the
    layout's cells (cells the signature never populates stay 0),
    ``relevant`` its positivity mask, and ``total_ub[d]`` the per-segment
    sum over ``C_eps(l)`` — the starting value of the
    incrementally-decremented remaining upper-bound column.
    """

    __slots__ = ("layout", "cell_ub", "relevant", "slot_relevant",
                 "slot_relevant_list", "total_ub", "total_ub_list")

    def __init__(self, layout: StoreLayout,
                 cell_ub: dict["CellCoord", int]) -> None:
        self.layout = layout
        bounds = np.zeros(layout.num_cells, dtype=np.int64)
        index = layout.cell_index
        for cell, count in cell_ub.items():
            pos = index.get(cell)
            if pos is not None:
                bounds[pos] = count
        self.cell_ub = bounds
        self.relevant = bounds > 0
        # Slot-major relevance: one list probe per slot in the finalise
        # walk instead of a cell-index indirection.
        self.slot_relevant = (self.relevant[layout.slot_cell]
                              if layout.num_slots
                              else np.zeros(0, dtype=bool))
        self.slot_relevant_list = self.slot_relevant.tolist()
        if layout.num_slots:
            slot_seg = np.repeat(np.arange(layout.num_segments),
                                 layout.cell_counts)
            # bincount sums small integer counts in float64 — exact far
            # below 2**53 — and unlike add.reduceat has no empty-run
            # pitfall for segments with zero cells.
            totals = np.bincount(slot_seg,
                                 weights=bounds[layout.slot_cell].astype(
                                     np.float64),
                                 minlength=layout.num_segments)
            self.total_ub = totals.astype(np.int64)
        else:
            self.total_ub = np.zeros(layout.num_segments, dtype=np.int64)
        self.total_ub_list = self.total_ub.tolist()


class MassSlots:
    """Slot-indexed ``(segment, cell)`` mass memo, one instance per
    ``(signature, eps, weighted)``.

    ``known`` gates reads; writers store the mass *before* flipping the
    flag so a concurrent reader can never observe an unset value.  Both
    orders are safe either way — every writer would store the same
    deterministic float — which is what keeps the session's add-only
    thread-compatibility contract intact.

    The columns are Python lists: every access is a single-slot probe or
    a short per-segment slice, where list indexing beats NumPy scalar
    indexing severalfold (see the module docstring).
    """

    __slots__ = ("mass", "known")

    def __init__(self, num_slots: int) -> None:
        self.mass: list[float] = [0.0] * num_slots
        self.known: list[bool] = [False] * num_slots

    def known_count(self) -> int:
        """Memoised slots (for reports)."""
        return sum(self.known)


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
