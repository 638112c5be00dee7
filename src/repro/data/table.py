"""The column store behind :class:`~repro.data.poi.POISet` and
:class:`~repro.data.photo.PhotoSet`.

A table *is* its columns: item ids, coordinates (plus, for POIs, weights)
and the keyword-incidence CSR :class:`KeywordColumns` over a sorted
vocabulary.  Item objects (:class:`~repro.data.poi.POI`,
:class:`~repro.data.photo.Photo`) are a decoded view: a table built from
objects keeps them, a table built from columns (a shared-memory snapshot)
decodes item ``p`` on the first positional access to ``p`` and caches it.
Algorithm 1 reads POIs only through the columns, so a serving worker
never materialises a POI; the describe stage decodes only the photos near
the street it summarises.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.errors import DataError


class KeywordColumns(NamedTuple):
    """Item -> keyword incidences as CSR over interned keyword ids.

    ``vocabulary`` is sorted; ``values[offsets[p]:offsets[p + 1]]`` are the
    ids of item ``p``'s keywords in ascending order, so the packing is
    deterministic although set iteration order is not.
    """

    vocabulary: list[str]
    offsets: np.ndarray
    values: np.ndarray


def keyword_incidence(
    keyword_sets: Sequence[frozenset[str]],
) -> KeywordColumns:
    """The :class:`KeywordColumns` of a sequence of keyword sets.

    The incidences are flattened and interned by C-level ``map`` passes;
    one sort of ``item * |vocabulary| + keyword id`` orders each item's
    run by keyword id and leaves the runs in place.
    """
    sizes = np.fromiter(map(len, keyword_sets), dtype=np.int64,
                        count=len(keyword_sets))
    flat = list(chain.from_iterable(keyword_sets))
    vocabulary = sorted(set(flat))
    intern = {keyword: kid for kid, keyword in enumerate(vocabulary)}
    values = np.fromiter(map(intern.__getitem__, flat), dtype=np.int64,
                         count=len(flat))
    offsets = np.zeros(sizes.shape[0] + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    base = np.repeat(np.arange(sizes.shape[0], dtype=np.int64),
                     sizes) * len(vocabulary)
    return KeywordColumns(vocabulary, offsets, np.sort(base + values) - base)


class ItemTable:
    """Positional item columns with objects decoded on first access.

    Subclasses name their items (``_noun``) and decode one position into
    an item object (``_decode``).  The index and serving layers read only
    the columns; the scan helpers (:meth:`relevant_positions`,
    :meth:`subset`) decode the items they visit.
    """

    _noun = "item"

    ids: np.ndarray
    xs: np.ndarray
    ys: np.ndarray

    def __init__(self, items: Iterable) -> None:
        items = list(items)
        position: dict[int, int] = {}
        for pos, item in enumerate(items):
            if position.setdefault(item.id, pos) != pos:
                raise DataError(f"duplicate {self._noun} id {item.id}")
        self.ids = np.array([item.id for item in items], dtype=np.int64)
        self.xs = np.array([item.x for item in items], dtype=np.float64)
        self.ys = np.array([item.y for item in items], dtype=np.float64)
        self._items: list = items
        self._complete = True
        self._position: dict[int, int] | None = position
        self._keywords: KeywordColumns | None = None

    def _attach(self, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                keywords: KeywordColumns) -> None:
        """Column-backed state: no item is decoded yet."""
        self.ids = ids
        self.xs = xs
        self.ys = ys
        self._items = [None] * int(ids.shape[0])
        self._complete = False
        self._position = None
        self._keywords = keywords

    def _decode(self, position: int):
        raise NotImplementedError

    def _keyword_set(self, position: int) -> frozenset[str]:
        """Item ``position``'s keywords, read from the incidence CSR."""
        vocabulary, offsets, values = self._keywords
        return frozenset(
            vocabulary[kid] for kid in
            values[offsets[position]:offsets[position + 1]].tolist())

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator:
        if not self._complete:
            items = self._items
            for position, item in enumerate(items):
                if item is None:
                    items[position] = self._decode(position)
            self._complete = True
        return iter(self._items)

    def __getitem__(self, position: int):
        """Item at a *position* (not id); see :meth:`by_id`."""
        item = self._items[position]
        if item is None:
            if position < 0:
                position += len(self._items)
            item = self._decode(position)
            self._items[position] = item
        return item

    def by_id(self, item_id: int):
        return self[self.position_of(item_id)]

    def position_of(self, item_id: int) -> int:
        if self._position is None:
            self._position = {
                item: pos for pos, item in enumerate(self.ids.tolist())}
        return self._position[item_id]

    # -- queries -----------------------------------------------------------------

    def keyword_columns(self) -> KeywordColumns:
        """The keyword-incidence CSR (built on first call from objects)."""
        if self._keywords is None:
            self._keywords = keyword_incidence(
                [item.keywords for item in self._items])
        return self._keywords

    def relevant_positions(self, query_keywords: Iterable[str]) -> list[int]:
        """Positions of items carrying at least one query keyword.

        A linear scan — the indexed path lives in
        :mod:`repro.index.poi_grid`; this exists for baselines and tests.
        """
        query = frozenset(query_keywords)
        return [pos for pos, item in enumerate(self)
                if not item.keywords.isdisjoint(query)]

    def subset(self, positions: Iterable[int]):
        """A new table of the same kind keeping only the given positions."""
        return type(self)(self[pos] for pos in positions)

    def vocabulary(self) -> frozenset[str]:
        """All keywords appearing in the table."""
        return frozenset(self.keyword_columns().vocabulary)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={len(self._items)})"


__all__ = ["ItemTable", "KeywordColumns", "keyword_incidence"]
