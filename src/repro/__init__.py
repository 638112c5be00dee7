"""repro — Identifying and Describing Streets of Interest (EDBT 2016).

A full reproduction of Skoutas, Sacharidis & Stamatoukos: given a road
network, keyword-tagged POIs and geotagged photos, (1) rank streets by the
density of relevant POIs around them (the *k-SOI* query, answered by the
SOI top-k algorithm over spatio-textual grid indexes) and (2) summarise
each discovered street with a small, spatio-textually relevant and diverse
photo set (the ST_Rel+Div algorithm).

Quickstart::

    from repro import SOIEngine, build_street_profile, STRelDivDescriber
    from repro.datagen import build_preset

    city = build_preset("vienna", scale=0.25)
    engine = SOIEngine(city.network, city.pois)
    for soi in engine.top_k(["shop"], k=5):
        print(soi.street_name, round(soi.interest, 1))

    profile = build_street_profile(
        city.network, engine.top_k(["shop"], k=1)[0].street_id,
        city.photos, eps=0.0005)
    summary = STRelDivDescriber(profile).select(k=3)

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from repro.core.aggregates import StreetAggregate
from repro.core.describe.greedy import GreedyDescriber
from repro.core.describe.profile import (
    DEFAULT_RHO,
    StreetProfile,
    build_street_profile,
)
from repro.core.describe.st_rel_div import STRelDivDescriber
from repro.core.describe.variants import VARIANTS, run_variant
from repro.core.region import RegionQuery
from repro.core.results import SOIQuery, SOIRanking, SOIResult, SOIStats
from repro.core.routes import Route, recommend_route
from repro.core.soi import DEFAULT_EPS, AccessStrategy, SOIEngine
from repro.core.soi_baseline import BaselineSOI
from repro.data.photo import Photo, PhotoSet
from repro.data.poi import POI, POISet
from repro.analysis.contracts import contracts_enabled, enable_contracts
from repro.errors import (
    ContractViolation,
    DataError,
    GridIndexError,
    NetworkError,
    QueryError,
    ReproError,
)
from repro.network.builder import RoadNetworkBuilder
from repro.network.model import RoadNetwork, Segment, Street, Vertex

__version__ = "1.0.0"

__all__ = [
    "AccessStrategy",
    "BaselineSOI",
    "ContractViolation",
    "DEFAULT_EPS",
    "DEFAULT_RHO",
    "DataError",
    "GreedyDescriber",
    "GridIndexError",
    "NetworkError",
    "POI",
    "POISet",
    "Photo",
    "PhotoSet",
    "QueryError",
    "RegionQuery",
    "ReproError",
    "RoadNetwork",
    "RoadNetworkBuilder",
    "Route",
    "SOIEngine",
    "SOIQuery",
    "SOIRanking",
    "SOIResult",
    "SOIStats",
    "STRelDivDescriber",
    "StreetAggregate",
    "Segment",
    "Street",
    "StreetProfile",
    "VARIANTS",
    "Vertex",
    "build_street_profile",
    "contracts_enabled",
    "enable_contracts",
    "recommend_route",
    "run_variant",
]
