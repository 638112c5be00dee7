"""Work counters shared by the describe-stage selection methods.

Both the exhaustive greedy baseline and ST_Rel+Div (Algorithm 2) report their
work through the same :class:`DescribeStats` so the Figure 6 analysis — and
the ``repro bench`` harness — can compare them counter for counter.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class DescribeStats:
    """Work counters of one photo-selection run.

    ``iterations`` is the number of greedy steps (= photos selected);
    ``photos_examined`` counts exact Equation-10 evaluations;
    ``pair_div_evals`` counts pairwise-diversity evaluations inside them
    (the dominant cost once photos have been selected).  The ``cells_*``
    counters are only populated by ST_Rel+Div, which operates on grid
    cells; the greedy baseline has no cells to prune.
    """

    iterations: int = 0
    cells_considered: int = 0
    cells_pruned_filter: int = 0
    cells_pruned_refine: int = 0
    photos_examined: int = 0
    pair_div_evals: int = 0

    @property
    def cells_refined(self) -> int:
        return (self.cells_considered - self.cells_pruned_filter
                - self.cells_pruned_refine)

    def counters(self) -> dict[str, int]:
        """All counters as a plain dict (for bench reports)."""
        return {
            "iterations": self.iterations,
            "cells_considered": self.cells_considered,
            "cells_pruned_filter": self.cells_pruned_filter,
            "cells_pruned_refine": self.cells_pruned_refine,
            "cells_refined": self.cells_refined,
            "photos_examined": self.photos_examined,
            "pair_div_evals": self.pair_div_evals,
        }
