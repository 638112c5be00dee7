"""Describing Streets of Interest (Section 4).

Given a street ``s`` and its associated photos ``R_s`` (those within
``eps``), select ``k`` photos maximising the MaxSum diversification
objective ``F = (1 - lambda) * rel + lambda * div`` (Equation 2) built from
spatio-textual relevance and diversity (Definitions 4-7).

* :mod:`repro.core.describe.profile` -- the street context
  (:class:`StreetProfile`): ``R_s``, the keyword frequency vector ``Phi_s``,
  ``maxD(s)`` and precomputed per-photo relevances;
* :mod:`repro.core.describe.measures` -- the exact measures and objective;
* :mod:`repro.core.describe.bounds` -- the per-cell bounds of Section 4.2.2;
* :mod:`repro.core.describe.greedy` -- the exhaustive greedy BL baseline,
  which the serve path runs;
* :mod:`repro.core.describe.st_rel_div` -- the ST_Rel+Div algorithm
  (Algorithm 2);
* :mod:`repro.core.describe.variants` -- the nine Table 3 method variants.
"""

from repro.core.describe.profile import StreetProfile, build_street_profile
from repro.core.describe.greedy import GreedyDescriber
from repro.core.describe.st_rel_div import DescribeStats, STRelDivDescriber
from repro.core.describe.variants import VARIANTS, MethodSpec, run_variant
from repro.core.describe.measures import objective_value

__all__ = [
    "DescribeStats",
    "GreedyDescriber",
    "MethodSpec",
    "STRelDivDescriber",
    "StreetProfile",
    "VARIANTS",
    "build_street_profile",
    "objective_value",
    "run_variant",
]
