"""Shared fixtures for the benchmark suite.

Each ``bench_*`` module regenerates one table or figure of the paper (see
DESIGN.md's per-experiment index).  pytest-benchmark provides the timing
table; the *content* of each experiment (rankings, scores, series) is
printed and also written to ``benchmarks/results/<name>.txt`` so that
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` leaves a
full record either way.

The cities are the full London/Berlin/Vienna presets; building them and
their engines once per session dominates start-up, so everything is
session-scoped and cached.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.datagen.presets import build_preset
from repro.eval.experiments import engine_for

RESULTS_DIR = Path(__file__).parent / "results"

CITY_NAMES = ("london", "berlin", "vienna")


@pytest.fixture(scope="session", params=CITY_NAMES)
def city(request):
    """One full preset city per parametrised benchmark."""
    return build_preset(request.param)


@pytest.fixture(scope="session")
def london():
    return build_preset("london")


@pytest.fixture(scope="session")
def berlin():
    return build_preset("berlin")


@pytest.fixture(scope="session")
def vienna():
    return build_preset("vienna")


@pytest.fixture(scope="session")
def all_cities(london, berlin, vienna):
    return {"london": london, "berlin": berlin, "vienna": vienna}


@pytest.fixture(scope="session")
def engine(city):
    eng = engine_for(city)
    eng.cell_maps.augmented_cell_counts_column(0.0005)  # warm the eps maps
    return eng


def emit(name: str, text: str) -> None:
    """Print an experiment report and persist it under results/."""
    print(f"\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
