"""London/Berlin/Vienna-shaped city presets.

The paper's Table 1 datasets (segments / POIs): London 113,885 / 2.1M,
Berlin 47,755 / 797k, Vienna 22,211 / 409k.  The presets below keep the
relative ordering and roughly the per-city segment:POI ratio while scaling
absolute sizes down so the pure-Python baseline remains benchmarkable —
the substitution is documented in DESIGN.md and quantified per experiment
in EXPERIMENTS.md.

Built cities are cached per (name, scale), because the benchmark suite
re-reads the same preset dozens of times.
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.datagen.city import City, CitySpec, generate_city

CITY_PRESETS: dict[str, CitySpec] = {
    "london": CitySpec(
        name="london",
        seed=20160315,
        n_horizontal=44,
        n_vertical=44,
        n_diagonal=6,
        width=0.20,
        height=0.20,
        breakpoint_prob=0.30,
        n_background_pois=9000,
        misc_street_pois=27000,
        street_pois_per_category=1250,
        destinations_per_category=7,
        n_background_photos=900,
        street_photos=16000,
        n_landmarks=40,
        photos_per_landmark=45,
        n_event_bursts=5,
        event_burst_size=60,
    ),
    "berlin": CitySpec(
        name="berlin",
        seed=20160316,
        n_horizontal=29,
        n_vertical=29,
        n_diagonal=4,
        width=0.16,
        height=0.16,
        breakpoint_prob=0.28,
        n_background_pois=3600,
        misc_street_pois=10000,
        street_pois_per_category=520,
        destinations_per_category=6,
        n_background_photos=400,
        street_photos=5500,
        n_landmarks=25,
        photos_per_landmark=35,
        n_event_bursts=4,
        event_burst_size=45,
    ),
    "vienna": CitySpec(
        name="vienna",
        seed=20160317,
        n_horizontal=20,
        n_vertical=20,
        n_diagonal=3,
        width=0.12,
        height=0.12,
        breakpoint_prob=0.26,
        n_background_pois=1800,
        misc_street_pois=5200,
        street_pois_per_category=270,
        destinations_per_category=5,
        n_background_photos=300,
        street_photos=2600,
        n_landmarks=18,
        photos_per_landmark=30,
        n_event_bursts=3,
        event_burst_size=35,
    ),
}
"""The three evaluation cities, keyed by lowercase name."""


def preset_spec(name: str, scale: float = 1.0) -> CitySpec:
    """The :class:`CitySpec` of a preset, optionally re-scaled.

    ``scale`` multiplies the linear street counts by ``sqrt(scale)`` (so
    segment counts scale by ~``scale``) and the POI/photo counts by
    ``scale``.  ``scale < 1`` gives fast variants for tests.
    """
    base = CITY_PRESETS[name]
    if scale == 1.0:  # repro-lint: disable=REP-N201 (exact sentinel: the unscaled default returns the shared base preset)
        return base
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    linear = scale ** 0.5
    return CitySpec(
        name=base.name,
        seed=base.seed,
        n_horizontal=max(6, round(base.n_horizontal * linear)),
        n_vertical=max(6, round(base.n_vertical * linear)),
        n_diagonal=max(1, round(base.n_diagonal * linear)),
        origin_x=base.origin_x,
        origin_y=base.origin_y,
        width=base.width,
        height=base.height,
        jitter=base.jitter,
        breakpoint_prob=base.breakpoint_prob,
        chunk_min=base.chunk_min,
        chunk_max=base.chunk_max,
        n_background_pois=max(100, round(base.n_background_pois * scale)),
        misc_street_pois=max(100, round(base.misc_street_pois * scale)),
        street_pois_per_category=max(
            60, round(base.street_pois_per_category * scale)),
        pareto_alpha=base.pareto_alpha,
        destinations_per_category=base.destinations_per_category,
        hotspot_spread=base.hotspot_spread,
        n_background_photos=max(50, round(base.n_background_photos * scale)),
        street_photos=max(50, round(base.street_photos * scale)),
        n_landmarks=max(4, round(base.n_landmarks * scale)),
        photos_per_landmark=base.photos_per_landmark,
        landmark_spread=base.landmark_spread,
        n_event_bursts=max(1, round(base.n_event_bursts * min(1.0, scale))),
        event_burst_size=base.event_burst_size,
    )


@lru_cache(maxsize=8)
def build_preset(name: str, scale: float = 1.0) -> City:
    """Generate (and cache) a preset city."""
    return generate_city(preset_spec(name, scale))
