#!/usr/bin/env python3
"""Quickstart: find Streets of Interest and describe one with photos.

Runs the full pipeline of the paper on a small synthetic city:

1. generate a city (road network + keyword-tagged POIs + geotagged photos);
2. answer a k-SOI query (Problem 1) with the SOI algorithm;
3. summarise the top street with a spatio-textually diverse photo set
   (Problem 2) using ST_Rel+Div.

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

from repro import (
    DEFAULT_EPS,
    GreedyDescriber,
    SOIEngine,
    STRelDivDescriber,
    build_street_profile,
)
from repro.datagen import build_preset


def main() -> None:
    # A half-scale Vienna keeps this instant; swap in "london" or
    # scale=1.0 for the full benchmark datasets.
    city = build_preset("vienna", scale=0.5)
    print(f"city: {city.name}  segments={len(city.network.segments)}  "
          f"POIs={len(city.pois)}  photos={len(city.photos)}")

    # -- identify: top-5 shopping streets --------------------------------
    engine = SOIEngine(city.network, city.pois)
    results = engine.top_k(["shop"], k=5, eps=DEFAULT_EPS)
    print("\ntop-5 Streets of Interest for 'shop':")
    for rank, soi in enumerate(results, start=1):
        print(f"  {rank}. {soi.street_name:<22} interest={soi.interest:,.0f}")

    # -- describe: a 3-photo summary of the winner ------------------------
    top = results[0]
    profile = build_street_profile(city.network, top.street_id,
                                   city.photos, eps=DEFAULT_EPS)
    print(f"\n{top.street_name} has {len(profile)} associated photos; "
          f"selecting 3 (lambda=0.5, w=0.5):")
    summary = STRelDivDescriber(profile).select(k=3)
    for pos in summary:
        photo = profile.photos[pos]
        tags = ", ".join(sorted(photo.keywords)[:5])
        print(f"  photo {photo.id} at ({photo.x:.4f}, {photo.y:.4f}): "
              f"{tags}")

    # The exhaustive greedy picks the same photos: the index prunes
    # candidates, it does not change the summary.
    assert GreedyDescriber(profile).select(k=3) == summary
    print("\n(ST_Rel+Div matches the exhaustive greedy, as Section 4.2 "
          "promises.)")


if __name__ == "__main__":
    main()
