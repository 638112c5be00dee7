"""Geotagged photos.

A photo (Section 4.1.1) is ``r = <(x_r, y_r), Psi_r>``: a location plus a
tag set.  Photos are the raw material of the *describe* stage: the set
``R_s`` of photos within ``eps`` of a street is summarised by a small,
spatio-textually diverse subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.data.keywords import normalize_keywords
from repro.data.table import ItemTable, KeywordColumns
from repro.errors import DataError


@dataclass(frozen=True, slots=True)
class Photo:
    """A geotagged photo: id, location and tag set."""

    id: int
    x: float
    y: float
    keywords: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DataError(
                f"photo {self.id} needs finite coordinates, "
                f"got ({self.x}, {self.y})")
        object.__setattr__(self, "keywords", normalize_keywords(self.keywords))

    def distance_to(self, other: "Photo") -> float:
        """Euclidean distance between two photo locations."""
        return float(np.hypot(self.x - other.x, self.y - other.y))


class PhotoSet(ItemTable):
    """A column-oriented, immutable collection of photos.

    Mirrors :class:`repro.data.poi.POISet`: NumPy coordinate columns indexed
    by position, id-to-position mapping, and simple scan-based helpers used
    by baselines and tests.
    """

    _noun = "photo"

    @classmethod
    def from_columns(cls, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                     keywords: KeywordColumns) -> "PhotoSet":
        """A photo set over existing columns; each :class:`Photo` is
        decoded on the first positional access to it."""
        photos = cls.__new__(cls)
        photos._attach(ids, xs, ys, keywords)
        return photos

    def _decode(self, position: int) -> Photo:
        return Photo(id=int(self.ids[position]), x=float(self.xs[position]),
                     y=float(self.ys[position]),
                     keywords=self._keyword_set(position))
