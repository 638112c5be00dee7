"""Points of Interest.

A POI (Section 3.1) is ``p = <(x_p, y_p), Psi_p>``: a location plus a set of
keywords.  The library additionally carries an optional per-POI ``weight``
(default 1.0) implementing the weighted-mass extension the paper mentions
immediately after Definition 1 ("this definition can be straightforwardly
adapted in the case that POIs have different weights").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.data.keywords import normalize_keywords
from repro.data.table import ItemTable, KeywordColumns
from repro.errors import DataError


@dataclass(frozen=True, slots=True)
class POI:
    """A Point of Interest: id, location, keyword set and weight."""

    id: int
    x: float
    y: float
    keywords: frozenset[str] = field(default_factory=frozenset)
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise DataError(f"POI {self.id} has negative weight {self.weight}")
        object.__setattr__(self, "keywords", normalize_keywords(self.keywords))

    def matches(self, query_keywords: frozenset[str]) -> bool:
        """Whether the POI is *relevant*: ``Psi_p`` intersects the query set."""
        return not self.keywords.isdisjoint(query_keywords)


class POISet(ItemTable):
    """A column-oriented, immutable collection of POIs.

    Coordinates and weights are NumPy arrays (:attr:`xs`, :attr:`ys`,
    :attr:`weights`) indexed by *position*, with :meth:`position_of`
    mapping POI ids to positions.  The index layers store positions, so
    the mass kernels gather candidate coordinates with fancy indexing and
    run the vectorised point-to-segment distance in one shot; keywords
    are read through :meth:`~repro.data.table.ItemTable.keyword_columns`.
    """

    _noun = "POI"

    def __init__(self, pois: Iterable[POI]) -> None:
        super().__init__(pois)
        self.weights: np.ndarray = np.array(
            [poi.weight for poi in self._items], dtype=np.float64)

    @classmethod
    def from_columns(cls, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                     weights: np.ndarray,
                     keywords: KeywordColumns) -> "POISet":
        """A POI set over existing columns; each :class:`POI` is decoded
        on the first positional access to it."""
        pois = cls.__new__(cls)
        pois._attach(ids, xs, ys, keywords)
        pois.weights = weights
        return pois

    def _decode(self, position: int) -> POI:
        return POI(id=int(self.ids[position]), x=float(self.xs[position]),
                   y=float(self.ys[position]),
                   keywords=self._keyword_set(position),
                   weight=float(self.weights[position]))
