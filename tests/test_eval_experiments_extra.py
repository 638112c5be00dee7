"""Additional coverage for :mod:`repro.eval.experiments` drivers."""

from __future__ import annotations

import pytest

from repro.eval.experiments import (
    PAPER_QUERY_KEYWORDS,
    engine_for,
    top_soi_profile,
)


class TestEngineCache:
    def test_engine_for_returns_same_instance(self, small_city):
        assert engine_for(small_city) is engine_for(small_city)

    def test_engine_for_distinguishes_cities(self, small_city):
        from repro.datagen.city import CitySpec, generate_city

        other_spec = CitySpec(name="elsewhere", seed=5, n_horizontal=6,
                              n_vertical=6, n_background_pois=50,
                              misc_street_pois=50,
                              street_pois_per_category=20,
                              n_background_photos=20, street_photos=50,
                              n_landmarks=2, n_event_bursts=1)
        other = generate_city(other_spec)
        assert engine_for(other) is not engine_for(small_city)


class TestTimingSweeps:
    def test_paper_keyword_order(self):
        # Table 4's cumulative sets build in exactly this order.
        assert PAPER_QUERY_KEYWORDS == ("religion", "education", "food",
                                        "services")


class TestTopSOIProfile:
    def test_unmatched_category_raises(self, small_city):
        with pytest.raises(Exception):
            top_soi_profile(small_city, "warpdrive")

    def test_profile_extent_covers_photos(self, small_city):
        profile = top_soi_profile(small_city, "shop")
        extent = profile.extent
        for pos in range(len(profile)):
            x = float(profile.photos.xs[pos])
            y = float(profile.photos.ys[pos])
            assert extent.contains_point(x, y)
