"""Route recommendation over discovered SOIs (the paper's future work).

Section 6 closes with "we plan ... to provide route recommendations based
on the discovered streets of interest".  This module implements the
natural baseline: visit the best segment of each top-k street, ordered by
a nearest-neighbour heuristic over network shortest-path distances, and
stitch the legs together into one walkable route.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.results import SOIResult
from repro.errors import QueryError
from repro.network.model import RoadNetwork


@dataclass(frozen=True, slots=True)
class Route:
    """A recommended route: ordered vertices, visited streets, length."""

    vertex_ids: tuple[int, ...]
    visited_street_ids: tuple[int, ...]
    total_length: float

    def __len__(self) -> int:
        return len(self.vertex_ids)


def recommend_route(
    network: RoadNetwork,
    results: list[SOIResult],
    start_vertex: int | None = None,
) -> Route:
    """A route visiting the best segment of each result street.

    Uses shortest paths on the undirected network (edge weight = segment
    length).  Streets whose best segment is unreachable from the current
    position are skipped rather than failing the whole route.  With
    ``start_vertex=None`` the route starts at the best segment of the
    highest-ranked street.
    """
    import networkx as nx  # deferred like RoadNetwork.as_networkx

    if not results:
        raise QueryError("cannot recommend a route from an empty result list")
    graph = network.as_networkx()
    targets = {
        res.street_id: network.segment(res.best_segment_id).u
        for res in results
    }
    if start_vertex is None:
        first = results[0]
        current = targets.pop(first.street_id)
        vertices: list[int] = [current]
        visited: list[int] = [first.street_id]
    else:
        if start_vertex not in network.vertices:
            raise QueryError(f"unknown start vertex {start_vertex}")
        current = start_vertex
        vertices = [current]
        visited = []
    total = 0.0
    while targets:
        lengths = nx.single_source_dijkstra_path_length(
            graph, current, weight="length")
        reachable = [(lengths[v], street_id, v)
                     for street_id, v in targets.items() if v in lengths]
        if not reachable:
            break
        dist, street_id, vertex = min(reachable)
        path = nx.dijkstra_path(graph, current, vertex, weight="length")
        vertices.extend(path[1:])
        visited.append(street_id)
        total += dist
        del targets[street_id]
        current = vertex
    return Route(tuple(vertices), tuple(visited), total)
