"""Brute-force references written straight from the paper's definitions.

Every production path is checked against these functions: SOI and BL,
both describers, and the serve path with and without its result cache
(``tests/test_oracle_differential.py``).  They use no index, no cache and
no incremental evaluator:

* :func:`soi_topk` is Definitions 1-3.  Every relevant POI within ``eps``
  of a segment counts toward its mass.  The mass is divided by the
  ``eps``-buffer area, and a street takes the maximum over its segments.
* :func:`greedy_mmr` is the greedy MaxSum loop with Equation 10
  recomputed from scratch for every candidate in every round.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import pytest

from repro.core.describe.greedy import _validate
from repro.core.describe.measures import mmr_value
from repro.core.describe.profile import StreetProfile, build_street_profile
from repro.core.interest import (
    segment_interest,
    segment_mass_bruteforce,
    street_interest_bruteforce,
)


def soi_topk(network, pois, keywords: Iterable[str], k: int, eps: float,
             weighted: bool = False) -> list[tuple[float, int]]:
    """``[(interest, street_id)]`` of the k-SOIs (Problem 1).

    Zero-interest streets are dropped; ties break by street id.
    """
    query = frozenset(keywords)
    scored = []
    for street_id in network.streets:
        interest = street_interest_bruteforce(
            network, street_id, pois, query, eps, weighted)
        if interest > 0:
            scored.append((interest, street_id))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return scored[:k]


def ranking(results) -> list[tuple[float, int]]:
    """``[(interest, street_id)]`` of engine results, in their order."""
    return [(r.interest, r.street_id) for r in results]


def assert_topk_equivalent(got: Sequence[tuple[float, int]],
                           want: Sequence[tuple[float, int]],
                           tol: float = 1e-9,
                           rel: float | None = None) -> None:
    """Same interests; same streets above the k-th-value tie.

    Problem 1 permits any tie-break at the k-th value, so only streets
    strictly above it must agree.  ``rel`` compares interests within that
    relative error and widens the tie margin to match; without it the
    margin is the absolute ``tol``.
    """
    assert [i for i, _ in got] == pytest.approx([i for i, _ in want],
                                                rel=rel), \
        "interest values differ"
    if not want:
        return
    boundary = want[-1][0]
    if rel is not None:
        tol = max(tol, rel * abs(boundary))
    got_ids = {sid for interest, sid in got if interest > boundary + tol}
    want_ids = {sid for interest, sid in want if interest > boundary + tol}
    assert got_ids == want_ids, "streets above the tie boundary differ"


def assert_best_segments(network, pois, keywords: Iterable[str], eps: float,
                         weighted: bool, results,
                         rel: float | None = None) -> None:
    """Each ``best_segment_id`` is a segment of its street whose
    brute-force interest equals the reported one (within ``rel``)."""
    query = frozenset(keywords)
    for result in results:
        segment = network.segment(result.best_segment_id)
        assert segment.street_id == result.street_id
        exact = segment_interest(
            segment_mass_bruteforce(segment, pois, query, eps, weighted),
            segment.length, eps)
        if rel is None:
            assert result.interest == exact
        else:
            assert result.interest == pytest.approx(exact, rel=rel)


def greedy_mmr(profile: StreetProfile, k: int, lam: float,
               w: float) -> list[int]:
    """Photo positions of the greedy Equation 10 summary.

    Each round scores every remaining photo with :func:`mmr_value`;
    ties keep the smallest position.
    """
    _validate(k, lam, w)
    n = len(profile)
    selected: list[int] = []
    remaining = set(range(n))
    while len(selected) < min(k, n):
        best_pos = -1
        best_value = -1.0
        for pos in sorted(remaining):
            value = mmr_value(profile, pos, selected, lam, w, k)
            if value > best_value:
                best_value = value
                best_pos = pos
        selected.append(best_pos)
        remaining.discard(best_pos)
    return selected


def describe_ids(network, photos, street_id: int, k: int, eps: float,
                 lam: float, w: float, rho: float) -> list[int]:
    """Photo ids of a street's ``k``-photo summary (Problem 2)."""
    profile = build_street_profile(network, street_id, photos, eps, rho=rho)
    return [profile.photos[pos].id
            for pos in greedy_mmr(profile, k, lam, w)]
