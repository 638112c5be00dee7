"""The paper's primary contributions.

* :mod:`repro.core.interest` -- segment mass / interest / street interest
  (Definitions 1-3, plus the weighted-POI variant);
* :mod:`repro.core.soi` -- the SOI top-k algorithm (Algorithm 1) behind
  :class:`~repro.core.soi.SOIEngine`;
* :mod:`repro.core.soi_baseline` -- the BL grid-scan baseline of the
  performance study (Section 5.2.1);
* :mod:`repro.core.describe` -- the describe stage: spatio-textual
  relevance/diversity measures, the exhaustive greedy, ST_Rel+Div (Algorithm 2)
  and the nine Table 3 method variants;
* :mod:`repro.core.region` -- the length-constrained max-sum region
  comparator (Cao et al., the paper's closest related work);
* :mod:`repro.core.routes` -- route recommendation over discovered SOIs
  (the paper's stated future work).
"""

from repro.core.aggregates import StreetAggregate
from repro.core.results import SOIQuery, SOIRanking, SOIResult, SOIStats
from repro.core.soi import AccessStrategy, SOIEngine
from repro.core.soi_baseline import BaselineSOI

__all__ = [
    "AccessStrategy",
    "BaselineSOI",
    "SOIEngine",
    "SOIQuery",
    "SOIRanking",
    "SOIResult",
    "SOIStats",
    "StreetAggregate",
]
