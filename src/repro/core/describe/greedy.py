"""The BL baseline of Section 5.2.2: exhaustive greedy MaxSum diversification.

Like ST_Rel+Div it builds the summary incrementally, at each step adding
the photo with the maximum marginal relevance (Equation 10) — but it
"examines all photos in each iteration" instead of operating on grid cells
with bounds.  Ties break towards the smallest photo position, the same
rule Algorithm 2 uses, so the two methods return identical summaries.
This is the describer the serve path runs: it needs no photo grid and no
Equation 11-14 cell bounds.

Equation 10 is kept for every photo as arrays, updated once per pick: the
pick's pairwise diversity towards every photo (Definitions 5 and 7) is
one array pass over ``R_s``, folded into each photo's running diversity
sum.  One full selection is ``O(k * n)`` pair evaluations, and every value
is bit-identical to recomputing
:func:`~repro.core.describe.measures.mmr_value` from scratch:

* Definition 5 rounds each distance as ``math.hypot`` of the coordinate
  differences, as :func:`~repro.core.describe.measures.spatial_div` does,
  then divides by ``maxD(s)``;
* Definition 7 counts the tags a photo shares with the pick by one
  ``bincount`` over the profile's tag CSR; ``1 - |a n b| / |a u b|`` of
  those integer counts is what
  :func:`~repro.core.describe.measures.jaccard_distance` computes;
* the running sums fold the picks left to right from ``0.0`` in selection
  order, the fold ``sum()`` performs over the selection list, and the
  value is ``base + (lam / (k - 1)) * div_sum`` in ``mmr_value``'s
  operation order.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis import contracts
from repro.core.describe.profile import StreetProfile
from repro.core.describe.stats import DescribeStats
from repro.core.interest import validate_k
from repro.errors import QueryError
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import perf_now, trace_span


class GreedyDescriber:
    """Exhaustive greedy photo selection over a street profile."""

    def __init__(self, profile: StreetProfile) -> None:
        self.profile = profile

    def select(self, k: int, lam: float = 0.5, w: float = 0.5) -> list[int]:
        """Photo positions of the ``k``-photo summary.

        Parameters mirror Equation 2/10: ``lam`` trades relevance for
        diversity, ``w`` trades spatial for textual information.  Returns
        fewer than ``k`` positions only when the profile holds fewer
        photos.
        """
        positions, _stats = self.select_with_stats(k, lam, w)
        return positions

    def select_with_stats(
        self, k: int, lam: float = 0.5, w: float = 0.5
    ) -> tuple[list[int], DescribeStats]:
        """Like :meth:`select` but also returns work counters.

        ``photos_examined`` counts the unselected photos of every round
        and ``pair_div_evals`` the unselected photos each pick but the
        last is folded into: the Equation 10 evaluations and pairwise
        diversities a scalar greedy loop would make.
        """
        _validate(k, lam, w)
        stats = DescribeStats()
        t0 = perf_now()
        with trace_span("describe.select", method="greedy", k=k, lam=lam, w=w):
            profile = self.profile
            n = len(profile)
            size = min(k, n)
            base = (1.0 - lam) * (w * profile.spatial_rel
                                  + (1.0 - w) * profile.textual_rel)
            div_scale = lam / (k - 1) if k > 1 else 0.0
            div_sum = np.zeros(n)
            values = base
            taken = np.zeros(n, dtype=bool)
            selected: list[int] = []
            while len(selected) < size:
                stats.iterations += 1
                with trace_span("describe.round"):
                    stats.photos_examined += n - len(selected)
                    # np.argmax keeps the first maximum: the smallest
                    # position on ties, Algorithm 2's rule.
                    pick = int(np.argmax(values))
                    if contracts.ENABLED:
                        contracts.check_describe_pick(
                            profile, pick, selected, lam, w, k,
                            float(values[pick]))
                    selected.append(pick)
                    taken[pick] = True
                    if len(selected) < size:
                        stats.pair_div_evals += n - len(selected)
                        div_sum += self._pair_div_towards(pick, w)
                        values = base + div_scale * div_sum
                        values[taken] = -np.inf
        obs_metrics.record_describe_query(stats, perf_now() - t0,
                                          method="greedy")
        return selected, stats

    def _pair_div_towards(self, pick: int, w: float) -> np.ndarray:
        """``pair_div(profile, pos, pick, w)`` for every position ``pos``."""
        profile = self.profile
        xs, ys = profile.photos.xs, profile.photos.ys
        n = xs.shape[0]
        spatial = np.fromiter(
            map(math.hypot, (xs - xs[pick]).tolist(),
                (ys - ys[pick]).tolist()),
            dtype=np.float64, count=n) / profile.max_d
        tag_ids, offsets, sizes = (profile.tag_ids, profile.tag_offsets,
                                   profile.tag_sizes)
        in_pick = np.zeros(len(profile.tag_vocabulary), dtype=bool)
        in_pick[tag_ids[offsets[pick]:offsets[pick + 1]]] = True
        inter = np.bincount(profile.tag_owner[in_pick[tag_ids]], minlength=n)
        union = sizes + sizes[pick] - inter
        # Two untagged photos (union 0) are at distance 1.0 - 1.0 = 0.0,
        # as in jaccard_distance.
        textual = 1.0 - np.divide(inter, union, out=np.ones(n),
                                  where=union > 0)
        return w * spatial + (1.0 - w) * textual


def _validate(k: int, lam: float, w: float) -> None:
    validate_k(k, "summary size k")
    if not 0.0 <= lam <= 1.0:
        raise QueryError(f"lambda must be in [0, 1], got {lam}")
    if not 0.0 <= w <= 1.0:
        raise QueryError(f"w must be in [0, 1], got {w}")
