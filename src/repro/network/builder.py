"""Incremental construction of road networks.

:class:`RoadNetworkBuilder` lets callers (loaders, the synthetic city
generator, tests) assemble a network piece by piece without worrying about
id bookkeeping, and performs the same validation as
:meth:`repro.network.model.RoadNetwork.validate` at :meth:`~RoadNetworkBuilder.build`
time.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import NetworkError
from repro.network.model import RoadNetwork, Segment, Street, Vertex


class RoadNetworkBuilder:
    """Builds a :class:`~repro.network.model.RoadNetwork`.

    Typical usage::

        builder = RoadNetworkBuilder()
        a = builder.add_vertex(0.0, 0.0)
        b = builder.add_vertex(1.0, 0.0)
        c = builder.add_vertex(2.0, 0.5)
        builder.add_street("High Street", [a, b, c])
        network = builder.build()

    ``add_street`` creates one segment per consecutive vertex pair.  For
    finer control, :meth:`add_street_from_segments` accepts pre-built
    segment chains.
    """

    def __init__(self) -> None:
        self._vertices: list[Vertex] = []
        self._segments: list[Segment] = []
        self._streets: list[Street] = []
        self._vertex_at: dict[tuple[float, float], int] = {}

    # -- vertices ----------------------------------------------------------

    def add_vertex(self, x: float, y: float) -> int:
        """Add a vertex, returning its id.

        Coordinates are deduplicated: adding a vertex at coordinates already
        present returns the existing id, which keeps intersections shared
        between crossing streets.  Raises
        :class:`~repro.errors.NetworkError` for a NaN or infinite
        coordinate.
        """
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NetworkError(
                f"vertex coordinates must be finite, got ({x}, {y})")
        key = (x, y)
        existing = self._vertex_at.get(key)
        if existing is not None:
            return existing
        vid = len(self._vertices)
        self._vertices.append(Vertex(vid, x, y))
        self._vertex_at[key] = vid
        return vid

    def vertex_count(self) -> int:
        return len(self._vertices)

    # -- streets -----------------------------------------------------------

    def add_street(self, name: str, vertex_ids: Sequence[int]) -> int:
        """Add a street passing through the given vertices, in order.

        Creates ``len(vertex_ids) - 1`` segments.  Raises
        :class:`~repro.errors.NetworkError` for fewer than two vertices,
        unknown ids, or zero-length hops (repeated consecutive vertices).
        """
        if len(vertex_ids) < 2:
            raise NetworkError(
                f"street {name!r} needs at least two vertices")
        for vid in vertex_ids:
            if not 0 <= vid < len(self._vertices):
                raise NetworkError(
                    f"street {name!r} references unknown vertex {vid}")
        street_id = len(self._streets)
        segment_ids = []
        for u, v in zip(vertex_ids, vertex_ids[1:]):
            if u == v:
                raise NetworkError(
                    f"street {name!r} repeats vertex {u} consecutively")
            vu = self._vertices[u]
            vv = self._vertices[v]
            sid = len(self._segments)
            self._segments.append(
                Segment(sid, street_id, u, v, vu.x, vu.y, vv.x, vv.y))
            segment_ids.append(sid)
        self._streets.append(Street(street_id, name, tuple(segment_ids)))
        return street_id

    def add_street_from_segments(
        self, name: str, endpoint_pairs: Sequence[tuple[int, int]]
    ) -> int:
        """Add a street from explicit ``(u, v)`` vertex-id pairs.

        Unlike :meth:`add_street`, consecutive segments here only need to
        *share* a vertex (either endpoint), which permits streets digitised
        with inconsistent segment orientations, as OSM data often is.
        """
        if not endpoint_pairs:
            raise NetworkError(f"street {name!r} needs at least one segment")
        street_id = len(self._streets)
        segment_ids = []
        for u, v in endpoint_pairs:
            for vid in (u, v):
                if not 0 <= vid < len(self._vertices):
                    raise NetworkError(
                        f"street {name!r} references unknown vertex {vid}")
            if u == v:
                raise NetworkError(
                    f"street {name!r} has a zero-length segment at vertex {u}")
            vu = self._vertices[u]
            vv = self._vertices[v]
            sid = len(self._segments)
            self._segments.append(
                Segment(sid, street_id, u, v, vu.x, vu.y, vv.x, vv.y))
            segment_ids.append(sid)
        self._streets.append(Street(street_id, name, tuple(segment_ids)))
        return street_id

    # -- finalisation --------------------------------------------------------

    def build(self, validate: bool = True) -> RoadNetwork:
        """Produce the immutable network (validating by default)."""
        return RoadNetwork(self._vertices, self._segments, self._streets,
                           validate=validate)
