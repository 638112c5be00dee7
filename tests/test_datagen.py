"""Tests for :mod:`repro.datagen` — determinism, structure, ground truth."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen import vocab
from repro.datagen.city import City, CitySpec, generate_city
from repro.datagen.pois import CATEGORY_VOLUME
from repro.datagen.presets import CITY_PRESETS, build_preset, preset_spec

from tests.conftest import TEST_SPEC


class TestVocab:
    def test_categories_have_head_keywords(self):
        for category, pool in vocab.CATEGORIES.items():
            assert pool[0] == vocab.head_keyword(category)
            assert len(pool) >= 5

    def test_category_pools_disjoint(self):
        seen: dict[str, str] = {}
        for category, pool in vocab.CATEGORIES.items():
            for keyword in pool:
                assert keyword not in seen, (
                    f"{keyword!r} in both {seen.get(keyword)} and {category}")
                seen[keyword] = category

    def test_longtail_disjoint_from_categories(self):
        rng = np.random.default_rng(0)
        tokens = set()
        for _ in range(50):
            tokens |= vocab.longtail_keywords(rng)
        category_keywords = {k for pool in vocab.CATEGORIES.values()
                             for k in pool}
        assert not tokens & category_keywords

    def test_street_names_unique_for_many_indices(self):
        names = [vocab.street_name(i) for i in range(600)]
        assert len(set(names)) == len(names)

    def test_unknown_category_raises(self):
        with pytest.raises(KeyError):
            vocab.category_keywords("spaceport")


class TestGeneration:
    def test_deterministic(self):
        a = generate_city(TEST_SPEC)
        b = generate_city(TEST_SPEC)
        assert a.network.stats() == b.network.stats()
        assert len(a.pois) == len(b.pois)
        assert a.pois.xs.tolist() == b.pois.xs.tolist()
        assert [p.keywords for p in a.pois] == [p.keywords for p in b.pois]
        assert a.photos.xs.tolist() == b.photos.xs.tolist()
        assert a.ground_truth == b.ground_truth

    def test_different_seed_differs(self):
        spec = CitySpec(**{**_spec_dict(TEST_SPEC), "seed": 123})
        other = generate_city(spec)
        base = generate_city(TEST_SPEC)
        assert other.pois.xs.tolist() != base.pois.xs.tolist()

    def test_network_is_valid(self, small_city):
        small_city.network.validate()

    def test_ground_truth_streets_exist(self, small_city):
        for category, streets in small_city.ground_truth.items():
            assert len(streets) == TEST_SPEC.destinations_per_category
            for street_id in streets:
                assert street_id in small_city.network.streets

    def test_ground_truth_ranked_by_planted_density(self, small_city,
                                                    small_engine):
        """The top planted shopping street should rank high for 'shop'."""
        results = small_engine.top_k(["shop"], k=5, eps=0.0005)
        top_truth = small_city.ground_truth["shop"][0]
        assert top_truth in {r.street_id for r in results}

    def test_landmarks_on_streets(self, small_city):
        for landmark in small_city.landmarks:
            assert landmark.street_id in small_city.network.streets
            assert landmark.tag.startswith("landmark")

    def test_photo_population_structure(self, small_city):
        tags = small_city.photos.vocabulary()
        assert any(t.startswith("event") for t in tags)
        assert any(t.startswith("landmark") for t in tags)

    def test_authoritative_sources(self, small_city):
        sources = small_city.authoritative_sources("shop", size=3)
        assert len(sources) == 2
        truth = set(small_city.ground_truth["shop"])
        for source in sources:
            assert len(source) == 3
            assert set(source) <= truth


class TestPresets:
    def test_presets_ordered_london_berlin_vienna(self):
        sizes = {}
        for name in ("london", "berlin", "vienna"):
            spec = CITY_PRESETS[name]
            sizes[name] = (spec.n_horizontal * spec.n_vertical,
                           spec.n_background_pois + spec.misc_street_pois)
        assert sizes["london"] > sizes["berlin"] > sizes["vienna"]

    def test_preset_spec_scaling(self):
        half = preset_spec("vienna", scale=0.5)
        full = CITY_PRESETS["vienna"]
        assert half.n_background_pois < full.n_background_pois
        assert half.n_horizontal < full.n_horizontal
        assert half.seed == full.seed

    def test_preset_scale_validation(self):
        for scale in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                preset_spec("vienna", scale=scale)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset_spec("atlantis")

    def test_build_preset_cached(self):
        a = build_preset("vienna", scale=0.1)
        b = build_preset("vienna", scale=0.1)
        assert a is b
        assert isinstance(a, City)

    def test_category_volumes_cover_all_categories(self):
        assert set(CATEGORY_VOLUME) == set(vocab.CATEGORIES)


def _spec_dict(spec: CitySpec) -> dict:
    return {field: getattr(spec, field)
            for field in spec.__dataclass_fields__}
