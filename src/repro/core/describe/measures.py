"""Exact spatio-textual relevance and diversity measures (Section 4.1.2).

All functions operate on photo *positions* within a
:class:`~repro.core.describe.profile.StreetProfile` so that Algorithm 2's
refinement and the objective scoring evaluate bit-identical arithmetic,
and the greedy baseline's array passes repeat it operation for operation
— which is what lets the tests assert that ST_Rel+Div selects exactly
the same photos as the exhaustive greedy.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.describe.profile import StreetProfile


def spatial_div(profile: StreetProfile, a: int, b: int) -> float:
    """Definition 5: pairwise distance normalised by ``maxD(s)``."""
    photos = profile.photos
    d = math.hypot(photos.xs[a] - photos.xs[b], photos.ys[a] - photos.ys[b])
    return d / profile.max_d


def textual_div(profile: StreetProfile, a: int, b: int) -> float:
    """Definition 7: Jaccard distance of the two photos' tag sets.

    Evaluated over the profile's interned integer-id sets: interning is
    injective, so intersection/union cardinalities — and hence the
    distance — are exactly those of the string sets, without re-hashing
    tag strings on every pairwise evaluation.
    """
    tag_sets = profile.tag_id_sets
    return jaccard_distance(tag_sets[a], tag_sets[b])


def jaccard_distance(a: frozenset, b: frozenset) -> float:
    """``1 - |a n b| / |a u b|``; two empty sets have distance 0."""
    union = len(a | b)
    if union == 0:
        return 0.0
    return 1.0 - len(a & b) / union


def pair_div(profile: StreetProfile, a: int, b: int, w: float) -> float:
    """Weighted pairwise diversity ``w * spatial + (1 - w) * textual``."""
    return (w * spatial_div(profile, a, b)
            + (1.0 - w) * textual_div(profile, a, b))


def photo_rel(profile: StreetProfile, pos: int, w: float) -> float:
    """Weighted relevance ``w * spatial + (1 - w) * textual`` of one photo."""
    return (w * float(profile.spatial_rel[pos])
            + (1.0 - w) * float(profile.textual_rel[pos]))


def set_relevance(profile: StreetProfile, positions: Sequence[int],
                  w: float) -> float:
    """Equation 4: mean weighted relevance of the set."""
    k = len(positions)
    if k == 0:
        return 0.0
    return sum(photo_rel(profile, pos, w) for pos in positions) / k


def set_diversity(profile: StreetProfile, positions: Sequence[int],
                  w: float) -> float:
    """Equation 5: mean weighted pairwise diversity of the set."""
    k = len(positions)
    if k < 2:
        return 0.0
    total = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            total += pair_div(profile, positions[i], positions[j], w)
    return 2.0 * total / (k * (k - 1))


def objective_value(profile: StreetProfile, positions: Sequence[int],
                    lam: float, w: float) -> float:
    """Equation 2: ``F = (1 - lambda) * rel + lambda * div``."""
    return ((1.0 - lam) * set_relevance(profile, positions, w)
            + lam * set_diversity(profile, positions, w))


def mmr_value(
    profile: StreetProfile,
    pos: int,
    selected: Sequence[int],
    lam: float,
    w: float,
    k: int,
) -> float:
    """Equation 10: the maximal-marginal-relevance score of a candidate.

    ``mmr(r) = (1 - lambda) * rel(r) + lambda / (k - 1) *
    sum_{r' in R} div(r, r')`` where ``R`` is the already-selected set and
    ``k`` the target summary size.  With ``k = 1`` the diversity term is
    undefined in the paper's formula; selection then degenerates to pure
    relevance, which is the natural reading.
    """
    value = (1.0 - lam) * photo_rel(profile, pos, w)
    if selected and k > 1:
        div_sum = sum(pair_div(profile, pos, other, w) for other in selected)
        value += lam / (k - 1) * div_sum
    return value


class MMREvaluator:
    """Incremental Equation 10 evaluator for greedy selection loops.

    :func:`mmr_value` recomputes ``sum_{r' in R} div(r, r')`` from scratch
    on every call, making one greedy selection pass
    ``O(|R| * candidates)``.  This evaluator keeps, per candidate, the
    running diversity sum towards the selected photos it has already seen;
    a :meth:`value` call only folds in selections made since the
    candidate's last evaluation — amortised ``O(1)`` additional pair
    evaluations per (candidate, selection).

    Bit-identity with :func:`mmr_value` is load-bearing (the tests assert
    that ST_Rel+Div and the greedy baseline pick identical photos):

    * the running sum extends by folding new selections left-to-right from
      ``0.0``, exactly the left fold ``sum()`` performs over the full
      selection list in order;
    * the final combination ``base + (lam / (k - 1)) * div_sum`` evaluates
      in the same operation order as :func:`mmr_value`'s
      ``value += lam / (k - 1) * div_sum``.

    Candidates never seen by :meth:`value` cost nothing, which preserves
    ST_Rel+Div's examine-fewer-photos advantage over the baseline.
    """

    __slots__ = ("profile", "lam", "w", "k", "_base", "_div_scale",
                 "_selected", "_div_sum", "_upto", "pair_div_evals")

    def __init__(self, profile: StreetProfile, lam: float, w: float,
                 k: int) -> None:
        self.profile = profile
        self.lam = lam
        self.w = w
        self.k = k
        n = len(profile)
        self._base = [(1.0 - lam) * photo_rel(profile, pos, w)
                      for pos in range(n)]
        self._div_scale = lam / (k - 1) if k > 1 else 0.0
        self._selected: list[int] = []
        self._div_sum = [0.0] * n
        self._upto = [0] * n  # selections already folded in, per candidate
        self.pair_div_evals = 0

    def extend_selection(self, pos: int) -> None:
        """Record a newly selected photo (candidates fold it in lazily)."""
        self._selected.append(pos)

    @property
    def selected(self) -> list[int]:
        """The selection list (shared, in selection order)."""
        return self._selected

    def value(self, pos: int) -> float:
        """``mmr_value(profile, pos, selected, lam, w, k)``, incrementally."""
        value = self._base[pos]
        selected = self._selected
        if selected and self.k > 1:
            upto = self._upto[pos]
            div_sum = self._div_sum[pos]
            if upto < len(selected):
                for other in selected[upto:]:
                    div_sum += pair_div(self.profile, pos, other, self.w)
                self.pair_div_evals += len(selected) - upto
                self._div_sum[pos] = div_sum
                self._upto[pos] = len(selected)
            value += self._div_scale * div_sum
        return value
