"""The BL baseline of the performance study (Section 5.2.1).

BL "uses only the spatial grid index to efficiently compute the interest of
every segment, and then determines the k-SOIs": no source lists, no bounds,
no early termination — every segment's exact mass is computed via its
``eps``-augmented cells, streets are ranked by their maximum segment
interest, and the top k are returned.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.aggregates import StreetAggregate

from repro.core.interest import (
    materialise_slot_masses,
    segment_interest,
    segment_mass,
    validate_query,
)
from repro.core.results import SOIResult
from repro.core.soi import DEFAULT_EPS, SOIEngine
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import trace_span


class BaselineSOI:
    """Exhaustive k-SOI evaluation over a prepared :class:`SOIEngine`.

    Shares the engine's indexes (the paper's BL also uses the grid), so a
    timing comparison against :meth:`SOIEngine.top_k` isolates the benefit
    of the source-list filtering rather than of indexing itself.
    """

    def __init__(self, engine: SOIEngine) -> None:
        self.engine = engine

    def top_k(
        self,
        keywords: Iterable[str],
        k: int,
        eps: float = DEFAULT_EPS,
        weighted: bool = False,
        aggregate: StreetAggregate | None = None,
        use_session: bool = True,
    ) -> list[SOIResult]:
        """Top-k streets by exhaustive computation.

        Output contract matches :meth:`SOIEngine.top_k`: decreasing
        interest, ties by street id, zero-interest streets omitted.

        ``aggregate`` selects how segment interests combine into a street
        interest (default: Definition 3's maximum).  Alternatives are only
        available on this exhaustive path — the SOI algorithm's bounds are
        specific to max-aggregation (see :mod:`repro.core.aggregates`).
        """
        from repro.core.aggregates import StreetAggregate, rank_streets

        interests = self.all_segment_interests(keywords, k, eps, weighted,
                                               use_session=use_session)
        network = self.engine.network
        if aggregate is None or aggregate is StreetAggregate.MAX:
            best: dict[int, tuple[float, int]] = {}
            for segment_id, value in interests.items():
                street_id = network.segment(segment_id).street_id
                current = best.get(street_id)
                if current is None or value > current[0]:
                    best[street_id] = (value, segment_id)
            ranked = sorted(
                ((value, street_id, seg_id)
                 for street_id, (value, seg_id) in best.items()
                 if value > 0),
                key=lambda item: (-item[0], item[1]))
            return [
                SOIResult(street_id=street_id,
                          street_name=network.street(street_id).name,
                          interest=value,
                          best_segment_id=seg_id)
                for value, street_id, seg_id in ranked[:k]
            ]
        out = []
        for street_id, value in rank_streets(network, interests,
                                             aggregate, eps, k):
            segments = network.segments_of_street(street_id)
            best_segment = max(segments,
                               key=lambda seg: interests[seg.id])
            out.append(SOIResult(
                street_id=street_id,
                street_name=network.street(street_id).name,
                interest=value,
                best_segment_id=best_segment.id))
        return out

    def all_segment_interests(
        self,
        keywords: Iterable[str],
        k: int = 1,
        eps: float = DEFAULT_EPS,
        weighted: bool = False,
        use_session: bool = True,
        stats=None,
    ) -> dict[int, float]:
        """Exact Definition 2 interest of *every* segment.

        Also used by the effectiveness experiments that need the full
        ranking rather than just the top k.  Every slot mass comes from
        one materialisation pass, shared through the session with the
        engine's other queries on the same keyword set when
        ``use_session=True``.  ``stats`` (an
        :class:`~repro.core.results.SOIStats` or compatible) collects the
        pass's kernel and mass-cache counters.
        """
        query = validate_query(keywords, k, eps)
        with trace_span("soi.baseline_query", eps=eps, weighted=weighted,
                        keywords=",".join(sorted(query))):
            session = (self.engine.sessions.get(query) if use_session
                       else None)
            if session is not None:
                if stats is not None:
                    stats.session_reused = session.queries_served > 0
                session.queries_served += 1
            out = self._interests_via_store(query, eps, weighted, session,
                                            stats)
        obs_metrics.REGISTRY.inc("soi.baseline_queries")
        obs_metrics.REGISTRY.inc("soi.baseline_segments_scanned", len(out))
        return out

    def _interests_via_store(self, query, eps, weighted, session,
                             stats) -> dict[int, float]:
        """Every segment's interest from the store layout's slot masses.

        The dense order *is* ``iter_segments`` order and each segment's
        slot run *is* its ``cells_of_segment`` order, so every mass sums
        its cells in that order, as the SOI run settles it.
        """
        layout = self.engine.store_layout(eps)
        if session is not None:
            slots, reused = session.store_mass_slots(layout, weighted, stats)
            if reused and stats is not None:
                stats.mass_cache_hits += slots.num_relevant
        else:
            slots = materialise_slot_masses(layout, self.engine.poi_index,
                                            query, weighted, stats)
        return {
            segment.id: segment_interest(segment_mass(layout, slots, dense),
                                         segment.length, eps)
            for dense, segment in enumerate(layout.segments)}
