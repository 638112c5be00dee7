"""Length-constrained maximum-sum region queries (the closest related work).

The paper contrasts k-SOI against the region query of Cao et al. [7]:
"a connected subgraph of the road network that maximizes an aggregate
score on the relevant POIs that are included, subject to a constraint on
its total length".  That problem is NP-hard; this module implements the
standard greedy expansion approximation so the examples and ablation
benches can demonstrate the behaviours Section 1 criticises — oddly shaped
regions, quantity-over-density, and low-score spur segments attached to a
single popular street.

POIs are assigned to segments via the same ``eps`` proximity rule as
Definition 1 (rather than [7]'s assumption that POIs sit on network
vertices), so both methods see identical relevance information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.interest import (
    materialise_slot_masses,
    segment_mass,
    validate_query,
)
from repro.core.soi import DEFAULT_EPS, SOIEngine
from repro.errors import QueryError


@dataclass(frozen=True, slots=True)
class RegionResult:
    """A connected region: its segments, aggregate score and total length."""

    segment_ids: tuple[int, ...]
    total_score: float
    total_length: float

    def __len__(self) -> int:
        return len(self.segment_ids)


class RegionQuery:
    """Greedy length-constrained max-sum region search over a SOIEngine."""

    def __init__(self, engine: SOIEngine) -> None:
        self.engine = engine
        self._adjacency = _segment_adjacency(engine)

    def best_region(
        self,
        keywords: Iterable[str],
        max_length: float,
        eps: float = DEFAULT_EPS,
    ) -> RegionResult:
        """Greedy approximation of the [7] query.

        Seeds at the highest-mass segment that fits the budget, then
        repeatedly attaches the adjacent segment with the best marginal
        score (ties: shorter segment, then id) while the length budget
        allows.  Zero-score segments may be attached when they unlock
        nothing better — exactly the artificial-connectivity artefact the
        paper criticises.
        """
        if max_length <= 0:
            raise QueryError(f"max_length must be positive, got {max_length}")
        query = validate_query(keywords, 1, eps)
        layout = self.engine.store_layout(eps)
        slots = materialise_slot_masses(layout, self.engine.poi_index, query)
        scores = {segment.id: segment_mass(layout, slots, dense)
                  for dense, segment in enumerate(layout.segments)}

        seed = self._best_seed(scores, max_length)
        if seed is None:
            return RegionResult((), 0.0, 0.0)
        network = self.engine.network
        region = {seed}
        total_score = scores[seed]
        total_length = network.segment(seed).length
        frontier = set(self._adjacency[seed])
        while frontier:
            best = None
            for sid in frontier:
                length = network.segment(sid).length
                if total_length + length > max_length:
                    continue
                key = (-scores[sid], length, sid)
                if best is None or key < best[0]:
                    best = (key, sid, length)
            if best is None:
                break
            _key, sid, length = best
            region.add(sid)
            total_score += scores[sid]
            total_length += length
            frontier.discard(sid)
            frontier.update(n for n in self._adjacency[sid]
                            if n not in region)
        return RegionResult(tuple(sorted(region)), total_score, total_length)

    def _best_seed(self, scores: dict[int, float],
                   max_length: float) -> int | None:
        network = self.engine.network
        best = None
        for sid, score in scores.items():
            length = network.segment(sid).length
            if length > max_length:
                continue
            key = (-score, length, sid)
            if best is None or key < best[0]:
                best = (key, sid)
        return None if best is None else best[1]


def _segment_adjacency(engine: SOIEngine) -> dict[int, tuple[int, ...]]:
    """Segments sharing a vertex, for the greedy expansion."""
    by_vertex: dict[int, list[int]] = {}
    for segment in engine.network.iter_segments():
        by_vertex.setdefault(segment.u, []).append(segment.id)
        by_vertex.setdefault(segment.v, []).append(segment.id)
    adjacency: dict[int, set[int]] = {
        seg.id: set() for seg in engine.network.iter_segments()}
    for sids in by_vertex.values():
        for sid in sids:
            adjacency[sid].update(s for s in sids if s != sid)
    return {sid: tuple(sorted(neighbors))
            for sid, neighbors in adjacency.items()}
