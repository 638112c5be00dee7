"""The three ranked source lists of the SOI algorithm (Section 3.2.2).

* **SL1**: grid cells sorted decreasingly on the (upper bound of the)
  number of relevant POIs they contain;
* **SL2**: segments sorted decreasingly on ``|C_eps(l)|``, the number of
  cells within distance ``eps``;
* **SL3**: segments sorted increasingly on length.

Each list supports ``pop`` (retrieve the next entry to *access*) and
``top`` (peek at the weight used in the unseen upper bound ``UB``).  Both
operations lazily skip entries that no longer qualify — popped cells, and
segments that have already been seen/finalised — which never loosens the
bound: skipping a *seen* segment in ``top`` only makes the maximum over the
remaining (unseen) segments smaller or equal.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.index.grid import CellCoord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.index.poi_grid import POIGridIndex


class CellBounds:
    """``|P_Psi(c)|`` of every candidate cell for one keyword signature
    (Algorithm 1, line 2), built in one vectorised pass.

    ``lin``/``ub`` are the bounds as columns in ascending linearised-cell
    order (how :class:`~repro.core.state_store.SignatureBindings` projects
    them onto a store layout); ``entries`` holds the SL1 entries
    ``(cell, bound)`` presorted on ``(-bound, cell)``.  Every bound is
    positive: a candidate cell holds at least one matching POI.
    """

    __slots__ = ("lin", "ub", "entries")

    def __init__(self, poi_index: "POIGridIndex",
                 keywords: Iterable[str]) -> None:
        lin, ub = poi_index.relevant_count_upper_bounds(keywords)
        # Linearised order is (i, j) order, so this is (-bound, cell).
        order = np.lexsort((lin, -ub))
        cell_i, cell_j = np.divmod(lin[order], np.int64(poi_index.grid.ny))
        self.lin = lin
        self.ub = ub
        self.entries: tuple[tuple[CellCoord, int], ...] = tuple(zip(
            zip(cell_i.tolist(), cell_j.tolist()), ub[order].tolist()))


class CellSourceList:
    """SL1: ``(cell, relevant-count-upper-bound)`` entries, count-descending.

    ``entries`` come sorted on ``(-count, cell)`` (:class:`CellBounds`
    makes them once per keyword signature) and are read in that order;
    the list never mutates the sequence, so a shared tuple is safe.
    """

    def __init__(self, entries: Sequence[tuple[CellCoord, int]]) -> None:
        self._entries = entries
        self._next = 0

    def top(self) -> int:
        """Count of the next un-popped cell; 0 when exhausted."""
        if self._next >= len(self._entries):
            return 0
        return self._entries[self._next][1]

    def pop(self) -> CellCoord | None:
        """The next cell to access, or ``None`` when exhausted."""
        if self._next >= len(self._entries):
            return None
        cell, _count = self._entries[self._next]
        self._next += 1
        return cell

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self._entries)

    def __len__(self) -> int:
        return len(self._entries) - self._next


class SegmentSourceList:
    """SL2 or SL3: segment ids with a weight, in a fixed total order.

    ``entries`` come in that order, read verbatim: the engine makes SL2's
    ``(-|C_eps(l)|, id)`` order once per ``eps`` and SL3's ``(length,
    id)`` order once per index build.  ``pop`` skips segments that are
    already *final* (their exact interest is known, so accessing them
    again is useless); ``top`` skips segments that are already *seen*
    (the ``UB`` formula bounds unseen segments only).  The two
    predicates are supplied by the algorithm so both SL2 and SL3 share
    one implementation.
    """

    def __init__(
        self,
        entries: Sequence[tuple[int, float]],
        is_final: Callable[[int], bool],
        is_seen: Callable[[int], bool],
    ) -> None:
        self._entries = entries
        self._is_final = is_final
        self._is_seen = is_seen
        self._pop_next = 0
        self._top_next = 0

    def top(self) -> float | None:
        """Weight of the best-ranked *unseen* segment; ``None`` if none left.

        Seen-ness is monotone, so the scan pointer never moves backwards
        and the total cost over a query is linear.
        """
        while self._top_next < len(self._entries):
            segment_id, weight = self._entries[self._top_next]
            if not self._is_seen(segment_id):
                return weight
            self._top_next += 1
        return None

    def pop(self) -> int | None:
        """The next non-final segment to access, or ``None`` when exhausted."""
        while self._pop_next < len(self._entries):
            segment_id, _weight = self._entries[self._pop_next]
            self._pop_next += 1
            if not self._is_final(segment_id):
                return segment_id
        return None

    @property
    def exhausted(self) -> bool:
        """Whether ``pop`` would return ``None``."""
        while self._pop_next < len(self._entries):
            if not self._is_final(self._entries[self._pop_next][0]):
                return False
            self._pop_next += 1
        return True
