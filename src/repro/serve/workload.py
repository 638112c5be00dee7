"""Seeded query workloads for ``repro top``, the serve tests and smokes.

A workload is a deterministic, shuffled mix of k-SOI requests (cumulative
keyword prefixes of the Section 5.2.1 study crossed with the Figure 4
``k`` values) and describe requests (streets actually returned by category
queries, so every request does real work).  The same ``seed`` always
produces the same request list.  Serving is measured by ``perfbench/``,
which builds its own streams and shares only :func:`describe_candidates`.

This module is intentionally **not** imported by ``repro.serve.__init__``:
worker processes import the serving package, and the workload generator
(together with its :mod:`repro.eval` dependency) has no business in that
import closure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.soi import DEFAULT_EPS, SOIEngine
from repro.serve.server import DescribeRequest, Request, SOIRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.photo import PhotoSet

WORKLOAD_SOI_KS: tuple[int, ...] = (10, 25, 50, 100)
WORKLOAD_DESCRIBE_KS: tuple[int, ...] = (5, 10, 20)
DESCRIBE_FRACTION = 0.25


def describe_candidates(
    engine: SOIEngine,
    categories: Sequence[str],
    eps: float = DEFAULT_EPS,
    per_category: int = 5,
) -> list[int]:
    """Street ids with a non-trivial photo/POI neighbourhood.

    The top SOI streets of each category query: exactly the streets the
    paper's describe experiments summarise, and guaranteed (by having
    positive interest) to be near relevant content.
    """
    streets: list[int] = []
    for category in categories:
        for result in engine.top_k([category], k=per_category, eps=eps):
            if result.street_id not in streets:
                streets.append(result.street_id)
    return streets


def make_workload(
    engine: SOIEngine,
    photos: "PhotoSet | None",
    num_queries: int = 64,
    seed: int = 0,
) -> list[Request]:
    """A deterministic mixed request list for one city, all at the default ε.

    :data:`DESCRIBE_FRACTION` of the requests (rounded down) are describe
    queries when ``photos`` is available and at least one category query
    returns a street; the rest are k-SOI queries over the cumulative
    prefixes of the paper's query keywords.  Requests are shuffled by the
    seeded RNG so worker pools see an interleaved stream rather than
    phase-separated batches.
    """
    from repro.eval.experiments import PAPER_QUERY_KEYWORDS

    if num_queries < 1:
        raise ValueError(f"num_queries must be at least 1, got {num_queries}")
    rng = np.random.default_rng(seed)
    signatures = [tuple(PAPER_QUERY_KEYWORDS[:size])
                  for size in range(1, len(PAPER_QUERY_KEYWORDS) + 1)]

    def pick(pool: Sequence):
        return pool[int(rng.integers(len(pool)))]

    streets: list[int] = []
    if photos is not None:
        streets = describe_candidates(engine, PAPER_QUERY_KEYWORDS)
    num_describe = int(num_queries * DESCRIBE_FRACTION) if streets else 0

    requests: list[Request] = []
    for _ in range(num_describe):
        requests.append(DescribeRequest(
            street_id=pick(streets),
            k=pick(WORKLOAD_DESCRIBE_KS)))
    for _ in range(num_queries - num_describe):
        requests.append(SOIRequest(
            keywords=pick(signatures),
            k=pick(WORKLOAD_SOI_KS)))
    return [requests[i] for i in rng.permutation(len(requests))]


__all__ = [
    "DESCRIBE_FRACTION",
    "WORKLOAD_DESCRIBE_KS",
    "WORKLOAD_SOI_KS",
    "describe_candidates",
    "make_workload",
]
