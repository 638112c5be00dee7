"""Road network data model.

Implements the formal model of Section 3.1: a graph ``G = (V, L)`` of
vertices and straight line segments, plus the street partition ``S`` where
each street is a simple path of consecutive segments and every segment
belongs to exactly one street.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from repro.errors import NetworkError
from repro.geometry.bbox import BBox
from repro.geometry.primitives import Point, segment_length

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


@dataclass(frozen=True, slots=True)
class Vertex:
    """A street intersection or breakpoint, with planar coordinates."""

    id: int
    x: float
    y: float

    @property
    def point(self) -> Point:
        return Point(self.x, self.y)


@dataclass(frozen=True, slots=True)
class Segment:
    """A straight street segment between two vertices.

    ``length`` is precomputed at construction (the paper's ``len(l)``,
    the Euclidean distance between the endpoints).
    """

    id: int
    street_id: int
    u: int
    v: int
    ax: float
    ay: float
    bx: float
    by: float
    length: float = field(default=-1.0)

    def __post_init__(self) -> None:
        if self.length < 0.0:
            object.__setattr__(
                self, "length",
                segment_length(self.ax, self.ay, self.bx, self.by))

    @property
    def endpoints(self) -> tuple[Point, Point]:
        return Point(self.ax, self.ay), Point(self.bx, self.by)

    @property
    def mbr(self) -> BBox:
        return BBox.of_segment(self.ax, self.ay, self.bx, self.by)


@dataclass(frozen=True, slots=True)
class Street:
    """A named street: an ordered tuple of consecutive segment ids."""

    id: int
    name: str
    segment_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.segment_ids)


class RoadNetwork:
    """An immutable road network with a street partition.

    Instances are normally produced by
    :class:`repro.network.builder.RoadNetworkBuilder` or by
    :mod:`repro.datagen`; the constructor performs full structural
    validation (see :meth:`validate`) unless ``validate=False``.
    """

    def __init__(
        self,
        vertices: Iterable[Vertex],
        segments: Iterable[Segment],
        streets: Iterable[Street],
        validate: bool = True,
    ) -> None:
        self._vertices: dict[int, Vertex] = {v.id: v for v in vertices}
        self._segments: dict[int, Segment] = {s.id: s for s in segments}
        self._streets: dict[int, Street] = {s.id: s for s in streets}
        if validate:
            self.validate()

    # -- accessors --------------------------------------------------------

    @property
    def vertices(self) -> Mapping[int, Vertex]:
        return self._vertices

    @property
    def segments(self) -> Mapping[int, Segment]:
        return self._segments

    @property
    def streets(self) -> Mapping[int, Street]:
        return self._streets

    def vertex(self, vertex_id: int) -> Vertex:
        return self._vertices[vertex_id]

    def segment(self, segment_id: int) -> Segment:
        return self._segments[segment_id]

    def street(self, street_id: int) -> Street:
        return self._streets[street_id]

    def street_of_segment(self, segment_id: int) -> Street:
        """The unique street the segment belongs to."""
        return self._streets[self._segments[segment_id].street_id]

    def segments_of_street(self, street_id: int) -> list[Segment]:
        """The street's segments, in path order."""
        street = self._streets[street_id]
        return [self._segments[sid] for sid in street.segment_ids]

    def street_by_name(self, name: str) -> Street:
        """The (first) street with the given name.

        Raises :class:`KeyError` when no street carries the name.  Names
        are not required to be unique (real cities reuse them), so prefer
        ids in programmatic code.
        """
        for street in self._streets.values():
            if street.name == name:
                return street
        raise KeyError(name)

    def iter_segments(self) -> Iterator[Segment]:
        return iter(self._segments.values())

    # -- derived quantities ------------------------------------------------

    def street_length(self, street_id: int) -> float:
        """Total length of a street (sum of its segment lengths)."""
        return sum(seg.length for seg in self.segments_of_street(street_id))

    def street_bbox(self, street_id: int) -> BBox:
        """MBR of all segments of the street."""
        segs = self.segments_of_street(street_id)
        box = segs[0].mbr
        for seg in segs[1:]:
            box = box.union(seg.mbr)
        return box

    def bbox(self) -> BBox:
        """MBR of the entire network."""
        if not self._vertices:
            raise NetworkError("empty network has no bounding box")
        return BBox.of_points((v.x, v.y) for v in self._vertices.values())

    def total_length(self) -> float:
        return sum(seg.length for seg in self._segments.values())

    def stats(self) -> dict[str, float]:
        """Summary statistics in the shape of the paper's Table 1."""
        lengths = [seg.length for seg in self._segments.values()]
        return {
            "num_vertices": len(self._vertices),
            "num_segments": len(self._segments),
            "num_streets": len(self._streets),
            "min_segment_length": min(lengths) if lengths else 0.0,
            "max_segment_length": max(lengths) if lengths else 0.0,
            "total_length": sum(lengths),
        }

    def as_networkx(self) -> nx.Graph:
        """Export as an undirected :class:`networkx.Graph`.

        Edges carry ``segment_id``, ``street_id`` and ``length`` attributes;
        nodes carry ``x`` / ``y``.  Used by the route-recommendation
        extension and handy for ad-hoc analysis.  ``networkx`` is imported
        here, not at module level: serving never builds the graph, and
        every spawned worker would otherwise pay for the import.
        """
        import networkx as nx

        graph = nx.Graph()
        for vertex in self._vertices.values():
            graph.add_node(vertex.id, x=vertex.x, y=vertex.y)
        for seg in self._segments.values():
            graph.add_edge(seg.u, seg.v, segment_id=seg.id,
                           street_id=seg.street_id, length=seg.length)
        return graph

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants of Section 3.1.

        Raises :class:`~repro.errors.NetworkError` when a segment references
        an unknown vertex or street, when its stored coordinates disagree
        with its vertices, when a street references an unknown or foreign
        segment, when a segment is claimed by zero or several streets, or
        when a street's segments do not form a connected path.
        """
        claimed: dict[int, int] = {}
        for street in self._streets.values():
            if not street.segment_ids:
                raise NetworkError(f"street {street.id} has no segments")
            for sid in street.segment_ids:
                if sid not in self._segments:
                    raise NetworkError(
                        f"street {street.id} references unknown segment {sid}")
                if self._segments[sid].street_id != street.id:
                    raise NetworkError(
                        f"segment {sid} is listed by street {street.id} but "
                        f"claims street {self._segments[sid].street_id}")
                if sid in claimed:
                    raise NetworkError(
                        f"segment {sid} belongs to streets "
                        f"{claimed[sid]} and {street.id}")
                claimed[sid] = street.id
            self._validate_path(street)
        for seg in self._segments.values():
            if seg.u not in self._vertices or seg.v not in self._vertices:
                raise NetworkError(
                    f"segment {seg.id} references unknown vertex")
            if seg.id not in claimed:
                raise NetworkError(
                    f"segment {seg.id} belongs to no street")
            vu = self._vertices[seg.u]
            vv = self._vertices[seg.v]
            if (vu.x, vu.y) != (seg.ax, seg.ay) or (vv.x, vv.y) != (seg.bx, seg.by):
                raise NetworkError(
                    f"segment {seg.id} coordinates disagree with its vertices")

    def _validate_path(self, street: Street) -> None:
        """Street segments must chain: consecutive segments share a vertex."""
        segs = [self._segments[sid] for sid in street.segment_ids
                if sid in self._segments]
        if len(segs) != len(street.segment_ids):
            return  # missing segments reported elsewhere
        for prev, nxt in zip(segs, segs[1:]):
            if len({prev.u, prev.v} & {nxt.u, nxt.v}) == 0:
                raise NetworkError(
                    f"street {street.id} ({street.name!r}) is not a path: "
                    f"segments {prev.id} and {nxt.id} share no vertex")

    # -- dunder -------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RoadNetwork(vertices={len(self._vertices)}, "
                f"segments={len(self._segments)}, "
                f"streets={len(self._streets)})")


def street_names(network: RoadNetwork, street_ids: Sequence[int]) -> list[str]:
    """Convenience: map street ids to their names, preserving order."""
    return [network.street(sid).name for sid in street_ids]
