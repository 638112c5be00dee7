"""Tests for :mod:`repro.core.describe.variants` (the Table 3 method grid)."""

from __future__ import annotations

import pytest

from repro.core.describe.greedy import GreedyDescriber
from repro.core.describe.variants import VARIANTS, MethodSpec, run_variant, \
    score_variants
from repro.core.describe.profile import StreetProfile
from repro.data.keywords import KeywordFrequencyVector
from repro.data.photo import Photo, PhotoSet
from repro.geometry.bbox import BBox


def _profile() -> StreetProfile:
    photos = PhotoSet([
        Photo(i, 0.0006 * (i % 5), 0.0008 * (i // 5),
              frozenset({f"t{i % 3}", "common"} if i % 4 else {"rare"}))
        for i in range(20)])
    phi = KeywordFrequencyVector.from_keyword_sets(
        p.keywords for p in photos)
    extent = BBox(-0.001, -0.001, 0.005, 0.005)
    return StreetProfile(photos=photos, phi=phi, max_d=extent.diagonal,
                         extent=extent, rho=0.001)


class TestMethodGrid:
    def test_nine_methods_defined(self):
        assert len(VARIANTS) == 9
        assert set(VARIANTS) == {
            "S_Rel", "S_Div", "S_Rel+Div",
            "T_Rel", "T_Div", "T_Rel+Div",
            "ST_Rel", "ST_Div", "ST_Rel+Div"}

    def test_effective_parameters(self):
        assert VARIANTS["S_Rel"].effective(0.5, 0.5) == (0.0, 1.0)
        assert VARIANTS["T_Div"].effective(0.5, 0.5) == (1.0, 0.0)
        assert VARIANTS["ST_Rel+Div"].effective(0.3, 0.7) == (0.3, 0.7)
        assert VARIANTS["S_Rel+Div"].effective(0.3, 0.7) == (0.3, 1.0)

    def test_names_match_keys(self):
        for name, spec in VARIANTS.items():
            assert spec.name == name


class TestRunVariant:
    def test_accepts_name_or_spec(self):
        profile = _profile()
        by_name = run_variant(profile, "ST_Rel+Div", 3)
        by_spec = run_variant(profile, VARIANTS["ST_Rel+Div"], 3)
        assert by_name == by_spec

    def test_index_and_naive_paths_agree(self):
        profile = _profile()
        greedy = GreedyDescriber(profile)
        for name, spec in VARIANTS.items():
            naive = greedy.select(3, *spec.effective(0.5, 0.5))
            assert run_variant(profile, name, 3) == naive, name

    def test_unknown_method_raises(self):
        with pytest.raises(KeyError):
            run_variant(_profile(), "X_Rel", 3)

    def test_pure_relevance_method_ignores_diversity(self):
        profile = _profile()
        selected = run_variant(profile, "ST_Rel", 3)
        # greedy on pure relevance picks the top-3 by photo_rel
        from repro.core.describe.measures import photo_rel

        rels = sorted(((photo_rel(profile, pos, 0.5), -pos)
                       for pos in range(len(profile))), reverse=True)
        expected = [-negpos for _rel, negpos in rels[:3]]
        assert sorted(selected) == sorted(expected)


class TestScoreVariants:
    def test_raw_scores_match_objective(self):
        from repro.core.describe.measures import objective_value

        profile = _profile()
        scores = score_variants(profile, k=3)
        positions = run_variant(profile, "ST_Rel+Div", 3)
        assert scores["ST_Rel+Div"] == pytest.approx(
            objective_value(profile, positions, 0.5, 0.5))

    def test_normalisation_happens_in_describe_scores(self):
        from repro.eval.experiments import describe_scores

        normalised = describe_scores(_profile(), k=3)
        assert normalised["ST_Rel+Div"] == pytest.approx(1.0)

    def test_all_methods_scored(self):
        scores = score_variants(_profile(), k=3)
        assert set(scores) == set(VARIANTS)
        assert all(score >= 0 for score in scores.values())

    def test_custom_method_subset(self):
        methods = {"S_Rel": VARIANTS["S_Rel"],
                   "ST_Rel+Div": VARIANTS["ST_Rel+Div"]}
        scores = score_variants(_profile(), k=3, methods=methods)
        assert set(scores) == {"S_Rel", "ST_Rel+Div"}
