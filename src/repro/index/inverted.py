"""Inverted indexes over keywords.

Two flavours, matching Section 3.2.1:

* :class:`CellInvertedIndex` -- the *local* index inside one grid cell: for
  each keyword, the list of item positions (POIs or photos) carrying it,
  sorted increasingly so multi-keyword queries can merge lists and count
  each item once;
* :class:`GlobalInvertedIndex` -- for each keyword, the list of
  ``(cell, count)`` entries sorted decreasingly on count.  The SOI source
  list SL1 is read straight out of this index.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import merge
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.index.grid import CellCoord


class CellInvertedIndex:
    """Keyword -> sorted item positions, within a single grid cell."""

    __slots__ = ("_postings", "_num_items", "_keywords")

    def __init__(self, items: Iterable[tuple[int, Iterable[str]]]) -> None:
        """``items`` yields ``(position, keywords)`` pairs for the cell."""
        postings: dict[str, list[int]] = defaultdict(list)
        count = 0
        for position, keywords in items:
            count += 1
            for keyword in keywords:
                postings[keyword].append(position)
        for lst in postings.values():
            lst.sort()
        self._postings: dict[str, tuple[int, ...]] = {
            k: tuple(v) for k, v in postings.items()}
        self._num_items = count
        self._keywords = frozenset(self._postings)

    def postings(self, keyword: str) -> Sequence[int]:
        """Sorted positions of items carrying ``keyword`` (possibly empty)."""
        return self._postings.get(keyword, ())

    def count(self, keyword: str) -> int:
        return len(self._postings.get(keyword, ()))

    def matching_positions(self, keywords: Iterable[str]) -> Iterator[int]:
        """Positions of items carrying *any* of the keywords, deduplicated.

        Implements the synchronous traversal of the ``UpdateInterest``
        procedure for multi-keyword queries: postings lists are sorted by
        position, so a k-way merge with duplicate suppression counts each
        item exactly once.
        """
        lists = [self._postings[k] for k in keywords if k in self._postings]
        if not lists:
            return
        if len(lists) == 1:
            yield from lists[0]
            return
        last = None
        for position in merge(*lists):
            if position != last:
                yield position
                last = position

    @property
    def keywords(self) -> frozenset[str]:
        return self._keywords

    @property
    def num_items(self) -> int:
        """Total number of items in the cell (``|P_c|`` in the paper)."""
        return self._num_items


class GlobalInvertedIndex:
    """Keyword -> list of ``(cell, count)``, sorted decreasingly on count.

    ``count`` is the number of items in the cell carrying the keyword
    (``I[psi][c]`` in the paper).  Ties break on cell coordinates so the
    ordering — and therefore every downstream experiment — is deterministic.

    The entries are held as columns, one run per keyword in that order;
    a keyword's ``entries`` tuple and ``count`` map are built on its first
    lookup (add-only caches: concurrent builders store equal values).
    """

    __slots__ = ("_row", "_offsets", "_cell_i", "_cell_j", "_count",
                 "_entries", "_counts")

    def __init__(
        self, per_cell_counts: Mapping[str, Mapping[CellCoord, int]]
    ) -> None:
        keywords = list(per_cell_counts)
        runs = [sorted(per_cell_counts[keyword].items(),
                       key=lambda item: (-item[1], item[0]))
                for keyword in keywords]
        flat = [entry for run in runs for entry in run]
        self._set_columns(
            keywords, np.cumsum([0] + [len(run) for run in runs]),
            np.asarray([cell[0] for cell, _count in flat], dtype=np.int64),
            np.asarray([cell[1] for cell, _count in flat], dtype=np.int64),
            np.asarray([count for _cell, count in flat], dtype=np.int64))

    @classmethod
    def from_columns(
        cls, keywords: Sequence[str], offsets: np.ndarray,
        cell_i: np.ndarray, cell_j: np.ndarray, count: np.ndarray,
    ) -> "GlobalInvertedIndex":
        """An index over entry columns already in ``(-count, cell)`` order
        within each keyword's run ``offsets[row]:offsets[row + 1]``."""
        index = cls.__new__(cls)
        index._set_columns(keywords, offsets, cell_i, cell_j, count)
        return index

    def _set_columns(self, keywords: Sequence[str], offsets: np.ndarray,
                     cell_i: np.ndarray, cell_j: np.ndarray,
                     count: np.ndarray) -> None:
        self._row = {keyword: row for row, keyword in enumerate(keywords)}
        self._offsets = np.asarray(offsets, dtype=np.int64).tolist()
        self._cell_i = cell_i
        self._cell_j = cell_j
        self._count = count
        self._entries: dict[str, tuple[tuple[CellCoord, int], ...]] = {}
        self._counts: dict[str, dict[CellCoord, int]] = {}

    @classmethod
    def from_cells(
        cls, cells: Mapping[CellCoord, CellInvertedIndex]
    ) -> "GlobalInvertedIndex":
        """Aggregate the per-cell indexes into the global one."""
        per_keyword: dict[str, dict[CellCoord, int]] = defaultdict(dict)
        for cell, index in cells.items():
            for keyword in index.keywords:
                per_keyword[keyword][cell] = index.count(keyword)
        return cls(per_keyword)

    def entries(self, keyword: str) -> Sequence[tuple[CellCoord, int]]:
        """``I[psi]``: cells with their counts, sorted decreasingly."""
        entries = self._entries.get(keyword)
        if entries is None:
            row = self._row.get(keyword)
            if row is None:
                return ()
            begin, end = self._offsets[row], self._offsets[row + 1]
            entries = tuple(zip(
                zip(self._cell_i[begin:end].tolist(),
                    self._cell_j[begin:end].tolist()),
                self._count[begin:end].tolist()))
            self._entries[keyword] = entries
        return entries

    def count(self, keyword: str, cell: CellCoord) -> int:
        """``I[psi][c]``: items in ``cell`` carrying ``keyword``."""
        counts = self._counts.get(keyword)
        if counts is None:
            counts = dict(self.entries(keyword))
            self._counts[keyword] = counts
        return counts.get(cell, 0)

    def cells_for(self, keywords: Iterable[str]) -> set[CellCoord]:
        """All cells having an entry for at least one of the keywords."""
        cells: set[CellCoord] = set()
        for keyword in keywords:
            cells.update(c for c, _count in self.entries(keyword))
        return cells

    @property
    def keywords(self) -> frozenset[str]:
        return frozenset(self._row)
