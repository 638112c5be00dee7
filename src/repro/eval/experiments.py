"""One driver per paper experiment.

Every function here regenerates the content of one table or figure from
the paper over a synthetic :class:`~repro.datagen.city.City`, returning
plain data structures; the benches in ``benchmarks/`` print the same
rows/series the paper reports, and EXPERIMENTS.md records the
paper-vs-measured comparison.  Figures 4 and 6 are timings, so
:mod:`repro.perf.bench` (``repro bench``) regenerates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.describe.measures import set_diversity, set_relevance
from repro.core.describe.profile import (
    DEFAULT_RHO,
    StreetProfile,
    build_street_profile,
)
from repro.core.describe.st_rel_div import STRelDivDescriber
from repro.core.describe.variants import score_variants
from repro.core.soi import DEFAULT_EPS, SOIEngine
from repro.datagen.city import City
from repro.eval.metrics import recall_at_k

PAPER_QUERY_KEYWORDS: tuple[str, ...] = (
    "religion", "education", "food", "services")
"""The cumulative keyword sets of the Section 5.2.1 performance study."""


# -- shared engine construction (cached: building indexes dominates) --------

_ENGINES: dict[tuple[str, int], SOIEngine] = {}


def engine_for(city: City) -> SOIEngine:
    """A (cached) :class:`SOIEngine` for a city."""
    key = (city.name, city.spec.seed)
    engine = _ENGINES.get(key)
    if engine is None:
        engine = SOIEngine(city.network, city.pois)
        _ENGINES[key] = engine
    return engine


# -- Table 1 -----------------------------------------------------------------

def dataset_stats(city: City) -> dict[str, float]:
    """One Table 1 row: segment counts/lengths and POI count."""
    stats = city.network.stats()
    return {
        "dataset": city.name,
        "num_segments": int(stats["num_segments"]),
        "min_segment_length": stats["min_segment_length"],
        "max_segment_length": stats["max_segment_length"],
        "num_pois": len(city.pois),
    }


# -- Table 4 -------------------------------------------------------------------

def relevant_poi_counts(
    city: City, keywords: Sequence[str] = PAPER_QUERY_KEYWORDS
) -> list[int]:
    """Relevant-POI counts for the cumulative keyword sets |Psi| = 1..n."""
    engine = engine_for(city)
    return [engine.poi_index.total_relevant(keywords[: size])
            for size in range(1, len(keywords) + 1)]


# -- Table 2 / Figure 2 ------------------------------------------------------------

@dataclass(slots=True)
class EffectivenessReport:
    """The Table 2 artefacts: our ranking, the sources, recalls."""

    ranked_street_ids: list[int]
    ranked_street_names: list[str]
    sources: list[list[int]]
    source_names: list[list[str]]
    recalls: list[float]


def shopping_effectiveness(
    city: City,
    category: str = "shop",
    k: int = 10,
    eps: float = DEFAULT_EPS,
) -> EffectivenessReport:
    """Reproduce the Table 2 study on the planted ground truth.

    Runs the k-SOI query for the category head keyword and measures
    recall@k against two synthesised authoritative source lists (see
    :meth:`City.authoritative_sources`).
    """
    engine = engine_for(city)
    results = engine.top_k([category], k=k, eps=eps)
    ranked = [res.street_id for res in results]
    sources = city.authoritative_sources(category)
    network = city.network
    return EffectivenessReport(
        ranked_street_ids=ranked,
        ranked_street_names=[res.street_name for res in results],
        sources=sources,
        source_names=[[network.street(sid).name for sid in src]
                      for src in sources],
        recalls=[recall_at_k(ranked, src, k) for src in sources],
    )


# -- describe-stage experiments ---------------------------------------------------

def top_soi_profile(
    city: City,
    category: str = "shop",
    eps: float = DEFAULT_EPS,
    rho: float = DEFAULT_RHO,
) -> StreetProfile:
    """The street profile of the city's top SOI for a category.

    This is the setup of the Table 3 / Figure 5 experiments (and of
    Figure 6 in :mod:`repro.perf.bench`): take the top-ranked street for
    the query and describe it with photos.
    """
    engine = engine_for(city)
    results = engine.top_k([category], k=1, eps=eps)
    if not results:
        raise ValueError(
            f"{city.name} has no street of interest for {category!r}")
    return build_street_profile(
        city.network, results[0].street_id, city.photos, eps, rho)


def describe_scores(
    profile: StreetProfile,
    k: int = 3,
    lam: float = 0.5,
    w: float = 0.5,
) -> dict[str, float]:
    """Table 3: :func:`~repro.core.describe.variants.score_variants`'
    objective scores, normalised to ST_Rel+Div's."""
    raw = score_variants(profile, k, lam, w)
    anchor = raw["ST_Rel+Div"]
    if anchor <= 0:
        return raw
    return {name: value / anchor for name, value in raw.items()}


def tradeoff_curve(
    profile: StreetProfile,
    k: int = 20,
    lambdas: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    w: float = 0.5,
) -> list[tuple[float, float, float]]:
    """Figure 5: (lambda, normalised relevance, normalised diversity).

    Relevance and diversity are each normalised by their maximum over the
    sweep, matching the paper's normalised axes.
    """
    describer = STRelDivDescriber(profile)
    raw = []
    for lam in lambdas:
        positions = describer.select(k, lam, w)
        raw.append((lam,
                    set_relevance(profile, positions, w),
                    set_diversity(profile, positions, w)))
    max_rel = max((rel for _lam, rel, _div in raw), default=0.0)
    max_div = max((div for _lam, _rel, div in raw), default=0.0)
    return [
        (lam,
         rel / max_rel if max_rel > 0 else 0.0,
         div / max_div if max_div > 0 else 0.0)
        for lam, rel, div in raw
    ]

