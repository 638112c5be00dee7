"""The BL baseline of the performance study (Section 5.2.1).

BL "uses only the spatial grid index to efficiently compute the interest of
every segment, and then determines the k-SOIs": no source lists, no bounds,
no early termination.  Every segment's exact mass is the sum of its
``(segment, cell)`` slot masses, which the one vectorised pass a session
shares with Algorithm 1 has already materialised; streets are ranked by
their maximum segment interest, and the top k are returned.

With the pass shared, BL's exhaustive ranking is one NumPy reduction over
its mass column, less work than Algorithm 1's filter and refinement, which
re-add the same known masses in Python.  The serve path therefore answers
every k-SOI request from :meth:`BaselineSOI.ranking`
(:mod:`repro.serve.server`), a :class:`~repro.core.results.SOIRanking`
of columns that builds result objects only for the rows a request
returns; Algorithm 1 stays :meth:`~repro.core.soi.SOIEngine.top_k`, the
paper's method.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.aggregates import StreetAggregate

from repro.analysis import contracts
from repro.core.interest import validate_query
from repro.core.results import SOIRanking, SOIResult
from repro.core.soi import DEFAULT_EPS, SOIEngine
from repro.obs.tracer import trace_span


class BaselineSOI:
    """Exhaustive k-SOI evaluation over a prepared :class:`SOIEngine`.

    Shares the engine's indexes and query sessions (the paper's BL also
    uses the grid), so a timing comparison against
    :meth:`SOIEngine.top_k` isolates the benefit of the source-list
    filtering rather than of indexing itself.
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
    ) -> list[SOIResult]:
        """Top-k streets by exhaustive computation.

        Output contract matches :meth:`SOIEngine.top_k`: decreasing
        interest, ties by street id, zero-interest streets omitted.

        ``aggregate`` selects how segment interests combine into a street
        interest (default: Definition 3's maximum, the first ``k`` entries
        of :meth:`ranking`).  Alternatives are only available on this
        exhaustive path — the SOI algorithm's bounds are specific to
        max-aggregation (see :mod:`repro.core.aggregates`).
        """
        from repro.core.aggregates import StreetAggregate, rank_streets

        validate_query(keywords, k, eps)
        if aggregate is None or aggregate is StreetAggregate.MAX:
            return self.ranking(keywords, eps, weighted)[:k]
        interests = self.all_segment_interests(keywords, k, eps, weighted)
        network = self.engine.network
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

    def ranking(
        self,
        keywords: Iterable[str],
        eps: float = DEFAULT_EPS,
        weighted: bool = False,
        stats=None,
    ) -> SOIRanking:
        """Every street of positive interest, ranked (Definition 3).

        Decreasing interest, ties by street id, and each street's best
        segment the lowest dense position among its equal maxima: the
        rules of Algorithm 1, so ``list(ranking)`` is a complete
        :meth:`~repro.core.soi.SOIEngine.top_k_with_stats` ranking bit
        for bit, and ``ranking[:k]`` its top k.  The ranking is returned
        as columns; only slicing or iterating it builds
        :class:`~repro.core.results.SOIResult` objects.  ``stats``
        collects the pass's counters.  Under ``REPRO_CHECK=1``
        the output contract and sampled Definition 1 recount of
        :class:`~repro.analysis.contracts.SOIContractMonitor` run.
        """
        query = validate_query(keywords, 1, eps)
        with trace_span("soi.baseline_query", eps=eps, weighted=weighted,
                        keywords=",".join(sorted(query))):
            layout, slots, interest = self._segment_interests(
                query, eps, weighted, stats)
            positive = np.flatnonzero(interest > 0.0)
            values = interest[positive]
            streets = layout.street_of[positive]
            # Stable sort on (street, -interest): among a street's equal
            # maxima the lowest dense position comes first.
            order = np.lexsort((-values, streets))
            streets = streets[order]
            first = np.ones(streets.shape[0], dtype=bool)
            first[1:] = streets[1:] != streets[:-1]
            best = positive[order[first]]
            streets = streets[first]
            values = interest[best]
            ranked = np.lexsort((streets, -values))
            best = best[ranked]
            ranking = SOIRanking(
                streets[ranked], values[ranked], layout.seg_ids[best],
                tuple(layout.street_name_of[best].tolist()))
        if contracts.ENABLED:
            contracts.SOIContractMonitor().check_results(
                self.engine, query, eps, weighted, len(ranking),
                list(ranking), layout, slots)
        return ranking

    def all_segment_interests(
        self,
        keywords: Iterable[str],
        k: int = 1,
        eps: float = DEFAULT_EPS,
        weighted: bool = False,
        stats=None,
    ) -> dict[int, float]:
        """Exact Definition 2 interest of *every* segment.

        Used by the alternative street aggregates and the effectiveness
        experiments, which need every segment rather than the ranking.
        Reads the same slot-mass pass as :meth:`ranking`; ``stats`` (an
        :class:`~repro.core.results.SOIStats` or compatible) collects the
        pass's kernel and mass-cache counters.
        """
        query = validate_query(keywords, k, eps)
        with trace_span("soi.baseline_query", eps=eps, weighted=weighted,
                        keywords=",".join(sorted(query))):
            layout, _slots, interest = self._segment_interests(
                query, eps, weighted, stats)
            return dict(zip(layout.seg_ids_list, interest.tolist()))

    def _segment_interests(self, query, eps, weighted, stats):
        """``(layout, slots, interest)``: every segment's Definition 2
        interest in dense order, from the slot masses of the engine's
        query session for ``query``.

        ``np.bincount`` adds each segment's slot masses in ascending slot
        (``cells_of_segment``) order, starting from 0.0, which is how
        :func:`~repro.core.interest.segment_mass` sums them, so every mass
        is the same float Algorithm 1 settles.  ``layout.buffer_col`` is
        bitwise :func:`~repro.core.interest.buffer_area`.
        """
        layout = self.engine.store_layout(eps)
        session = self.engine.sessions.get(query)
        if stats is not None:
            stats.session_reused = session.queries_served > 0
        session.queries_served += 1
        slots, reused = session.store_mass_slots(layout, weighted, stats)
        if reused and stats is not None:
            stats.mass_cache_hits += slots.num_relevant
        mass = np.bincount(layout.slot_seg, weights=slots.mass_col,
                           minlength=layout.num_segments)
        if contracts.ENABLED:
            for value, length in zip(mass.tolist(), layout.lengths_list):
                contracts.check_definition2(value, length, eps)
        return layout, slots, mass / layout.buffer_col
