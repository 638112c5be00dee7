"""The street context used by the describe stage.

A :class:`StreetProfile` bundles everything Definitions 4-7 need about one
street: its associated photos ``R_s`` (within ``eps``), the keyword
frequency vector ``Phi_s``, the distance normaliser ``maxD(s)`` (diagonal
of the ``eps``-buffered street MBR) and the neighbourhood radius ``rho``.
It precomputes the per-photo spatial and textual relevances once, since
every selection method reads them repeatedly.

Every step is a column pass over the photo table: ``R_s`` tests only the
photos inside the street MBR padded by ``eps`` plus a rounding slack, the
profile's photos are a column subset (no photo object is decoded),
Definition 4 counts neighbours over row blocks of the pairwise distance
matrix, and Definition 6 sums a ``Phi_s`` weight column over interned tag
ids.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from repro.data.keywords import KeywordFrequencyVector
from repro.data.photo import PhotoSet
from repro.data.poi import POISet
from repro.errors import QueryError
from repro.geometry.bbox import BBox
from repro.geometry.distance import points_segment_distance
from repro.index.grid import rounding_slack
from repro.network.model import RoadNetwork
from repro.obs.tracer import trace_span

DEFAULT_RHO = 0.0001
"""The neighbourhood radius used in the paper's experiments (Section 5.2.2)."""

_PAIR_BLOCK = 32768
"""Most pairwise distances Definition 4 holds at once: whole rows of the
``|R_s| x |R_s|`` matrix, as many as fit."""


class StreetProfile:
    """Everything the describe measures need about one street.

    Parameters
    ----------
    photos:
        ``R_s``: the photos associated with the street.
    phi:
        ``Phi_s``: the street's keyword frequency vector.
    max_d:
        ``maxD(s)``: largest possible distance between two associated
        photos (Definition 5's normaliser).
    extent:
        Rectangle for the photo grid (the ``eps``-buffered street MBR).
    rho:
        Neighbourhood radius of Definition 4.
    street_id, street_name:
        Identification, carried through to reports.

    The photos' tags are read as interned ids: ``tag_ids[tag_offsets[p]:
    tag_offsets[p + 1]]`` are photo ``p``'s tags, numbered by the sorted
    vocabulary of the profile's photos, and ``tag_weights[t]`` is
    ``Phi_s`` of tag ``t`` (0.0 outside ``Psi_s``).  ``tag_sizes[p]`` is
    photo ``p``'s tag count and ``tag_owner[i]`` the photo of CSR entry
    ``i``.
    """

    def __init__(
        self,
        photos: PhotoSet,
        phi: KeywordFrequencyVector,
        max_d: float,
        extent: BBox,
        rho: float = DEFAULT_RHO,
        street_id: int = -1,
        street_name: str = "",
    ) -> None:
        if not (rho > 0 and math.isfinite(rho)):
            raise QueryError(f"rho must be positive and finite, got {rho}")
        if max_d <= 0:
            raise QueryError(f"max_d must be positive, got {max_d}")
        self.photos = photos
        self.phi = phi
        self.max_d = float(max_d)
        self.extent = extent
        self.rho = float(rho)
        self.street_id = street_id
        self.street_name = street_name
        vocabulary, self.tag_offsets, self.tag_ids = photos.keyword_columns()
        self.tag_vocabulary: list[str] = vocabulary
        self.tag_weights = phi.weights(vocabulary)
        self.tag_sizes = np.diff(self.tag_offsets)
        self.tag_owner = np.repeat(np.arange(len(photos)), self.tag_sizes)
        self.spatial_rel = self._compute_spatial_rel()
        self.textual_rel = self._compute_textual_rel()

    @cached_property
    def tag_id_sets(self) -> tuple[frozenset[int], ...]:
        """Every photo's tag set, as interned ids.

        Jaccard distance (Definition 7) only needs intersection/union
        cardinalities, and the interning is injective, so distances over
        the id sets equal distances over the tag strings.
        """
        ids = self.tag_ids.tolist()
        bounds = self.tag_offsets.tolist()
        return tuple(frozenset(ids[begin:end])
                     for begin, end in zip(bounds, bounds[1:]))

    @cached_property
    def keyword_sets(self) -> tuple[frozenset[str], ...]:
        """Every photo's tag set, as strings."""
        vocabulary = self.tag_vocabulary
        return tuple(frozenset(vocabulary[tag] for tag in tags)
                     for tags in self.tag_id_sets)

    # -- precomputed per-photo relevances ----------------------------------

    def _compute_spatial_rel(self) -> np.ndarray:
        """Definition 4 for every photo: neighbours within ``rho`` / ``|R_s|``.

        A photo counts itself (its distance to itself is zero), matching
        the cell lower bound of Equation 11.  Row ``p`` of each block is
        ``np.hypot(xs - xs[p], ys - ys[p]) <= rho``.
        """
        n = len(self.photos)
        out = np.zeros(n, dtype=np.float64)
        if n == 0:
            return out
        xs, ys = self.photos.xs, self.photos.ys
        rows = max(1, _PAIR_BLOCK // n)
        for begin in range(0, n, rows):
            end = min(n, begin + rows)
            within = np.hypot(xs - xs[begin:end, None],
                              ys - ys[begin:end, None]) <= self.rho
            out[begin:end] = np.count_nonzero(within, axis=1) / n
        return out

    def _compute_textual_rel(self) -> np.ndarray:
        """Definition 6 (Equation 8) for every photo: its tags' ``Phi_s``
        weights summed in tag-id order, over ``||Phi_s||_1``."""
        n = len(self.photos)
        norm = self.phi.norm1
        if norm == 0:
            return np.zeros(n, dtype=np.float64)
        return np.bincount(self.tag_owner,
                           weights=self.tag_weights[self.tag_ids],
                           minlength=n) / norm

    def __len__(self) -> int:
        return len(self.photos)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"StreetProfile(street={self.street_name!r}, "
                f"photos={len(self.photos)}, rho={self.rho})")


def _near_street(network: RoadNetwork, street_id: int, xs: np.ndarray,
                 ys: np.ndarray, eps: float) -> np.ndarray:
    """Ascending positions of the points within ``eps`` of the street.

    ``dist(r, s) = min over segments of dist(r, l)`` (Section 4.1.1 defines
    photo-to-street distance exactly as for POIs), each ``dist(r, l)`` the
    :func:`points_segment_distance` float.  Only points inside the street
    MBR padded by ``eps`` and a rounding slack are tested: a point outside
    it is more than ``eps`` plus the slack from every segment in exact
    arithmetic, and the slack exceeds the rounding of the projected
    point, so its computed distance exceeds ``eps`` as well.
    """
    box = network.street_bbox(street_id)
    pad = eps + rounding_slack(eps + max(abs(box.min_x), abs(box.min_y),
                                         abs(box.max_x), abs(box.max_y)))
    candidates = np.flatnonzero(
        (xs >= box.min_x - pad) & (xs <= box.max_x + pad)
        & (ys >= box.min_y - pad) & (ys <= box.max_y + pad))
    cxs, cys = xs[candidates], ys[candidates]
    within = np.zeros(candidates.shape[0], dtype=bool)
    for segment in network.segments_of_street(street_id):
        pending = np.flatnonzero(~within)
        if pending.shape[0] == 0:
            break
        dists = points_segment_distance(
            cxs[pending], cys[pending],
            segment.ax, segment.ay, segment.bx, segment.by)
        within[pending[dists <= eps]] = True
    return candidates[within]


def photos_near_street(
    network: RoadNetwork,
    street_id: int,
    photos: PhotoSet,
    eps: float,
) -> list[int]:
    """Positions of photos within ``eps`` of the street (``R_s``)."""
    return _near_street(network, street_id, photos.xs, photos.ys,
                        eps).tolist()


@trace_span("describe.profile_build")
def build_street_profile(
    network: RoadNetwork,
    street_id: int,
    photos: PhotoSet,
    eps: float,
    rho: float = DEFAULT_RHO,
    pois: POISet | None = None,
    poi_keyword_weight: float = 1.0,
) -> StreetProfile:
    """Assemble the :class:`StreetProfile` for a street.

    ``Phi_s`` is derived from the keyword sets of the associated photos
    (the paper notes several derivations are possible, including "from the
    keywords of its neighbouring POIs and/or photos"); pass ``pois`` to also
    blend in the keywords of POIs within ``eps``, each contributing
    ``poi_keyword_weight`` per keyword occurrence.

    Raises :class:`~repro.errors.QueryError` for an unknown street, an
    ``eps`` that is negative or not finite, or a ``rho`` that is not
    positive and finite.  ``eps = 0`` keeps only photos on the street.
    """
    if street_id not in network.streets:
        raise QueryError(f"unknown street id {street_id!r}")
    if not (eps >= 0 and math.isfinite(eps)):
        raise QueryError(f"eps must be non-negative and finite, got {eps}")
    if not (rho > 0 and math.isfinite(rho)):
        raise QueryError(f"rho must be positive and finite, got {rho}")
    street_photos = photos.subset(
        _near_street(network, street_id, photos.xs, photos.ys, eps))
    vocabulary, _offsets, tags = street_photos.keyword_columns()
    freq = dict(zip(vocabulary, np.bincount(
        tags, minlength=len(vocabulary)).astype(np.float64).tolist()))
    if pois is not None:
        near = _near_street(network, street_id, pois.xs, pois.ys, eps)
        for pos in near.tolist():
            for keyword in pois[pos].keywords:
                # The Phi_s frequency vector is algorithmic state, not
                # telemetry.
                freq[keyword] = freq.get(keyword, 0.0) + poi_keyword_weight  # repro-lint: disable=REP-O502 (Phi_s state)
    extent = network.street_bbox(street_id).expanded(eps)
    return StreetProfile(
        photos=street_photos,
        phi=KeywordFrequencyVector(freq),
        max_d=extent.diagonal,
        extent=extent,
        rho=rho,
        street_id=street_id,
        street_name=network.street(street_id).name,
    )
