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
    RelevantCellCache,
    segment_interest,
    segment_mass_batched_slots,
    validate_query,
)
from repro.core.results import SOIResult
from repro.core.soi import DEFAULT_EPS, SOIEngine
from repro.core.state_store import MassSlots
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
        ranking rather than just the top k.  One batched distance kernel
        runs per segment (over its whole ``eps``-neighbourhood), and with
        ``use_session=True`` the per-cell materialisations and masses are
        shared with the engine's other queries on the same keyword set
        (masses are memoised in the session's slot columns).  ``stats``
        (an :class:`~repro.core.results.SOIStats` or compatible) collects
        kernel/cache counters.
        """
        query = validate_query(keywords, k, eps)
        with trace_span("soi.baseline_query", eps=eps, weighted=weighted,
                        keywords=",".join(sorted(query))):
            session = (self.engine.sessions.get(query) if use_session
                       else None)
            if session is not None:
                cache = session.cache
                if stats is not None:
                    stats.session_reused = session.queries_served > 0
                session.queries_served += 1
            else:
                cache = RelevantCellCache(self.engine.poi_index, query)
            out = self._interests_via_store(eps, weighted, session, cache,
                                            stats)
        obs_metrics.REGISTRY.inc("soi.baseline_queries")
        obs_metrics.REGISTRY.inc("soi.baseline_segments_scanned", len(out))
        return out

    def _interests_via_store(self, eps, weighted, session, cache,
                             stats) -> dict[int, float]:
        """Scan every segment through the store layout's CSR slots.

        The dense order *is* ``iter_segments`` order and each segment's
        slot run *is* its ``cells_of_segment`` order, so every mass
        accumulates its cells in that order, cold or warm.
        """
        layout = self.engine.store_layout(eps)
        if session is not None:
            mass_slots = session.store_mass_slots(layout, weighted)
            count_memo = True
        else:
            mass_slots = MassSlots(layout.num_slots)
            count_memo = False
        slot_cells = layout.slot_cells
        offsets = layout.slot_offsets
        known_col = mass_slots.known
        mass_col = mass_slots.mass
        out: dict[int, float] = {}
        for dense, segment in enumerate(layout.segments):
            start = int(offsets[dense])
            stop = int(offsets[dense + 1])
            if start < stop and all(known_col[start:stop]):
                # Warm fast path: every contribution is memoised;
                # accumulate the slot run in cell order.
                if stats is not None:
                    stats.mass_cache_hits += stop - start
                mass = 0.0
                for value in mass_col[start:stop]:
                    mass += value
            else:
                mass = segment_mass_batched_slots(
                    segment, slot_cells[start:stop], range(start, stop),
                    mass_col, known_col, cache, eps, weighted,
                    stats=stats, count_memo=count_memo)
            out[segment.id] = segment_interest(mass, segment.length, eps)
        return out
