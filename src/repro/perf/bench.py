"""The ``repro bench`` harness: timed Figure 4 / Figure 6 configurations.

Measures the two hot paths this layer optimises — k-SOI parameter sweeps
(Figure 4's ``k`` and ``|Psi|`` axes, SOI algorithm vs the BL baseline)
and greedy photo selection (Figure 6, naive greedy vs ST_Rel+Div) — and
writes ``BENCH_soi.json`` / ``BENCH_describe.json`` reports that combine:

* **medians**: the median full-sweep wall time over ``repeats`` runs plus
  per-point medians (robust against scheduler noise, comparable across
  commits as long as the machine is);
* **work counters**: kernel calls, cache traffic and pruning counts from
  :class:`~repro.core.results.SOIStats` /
  :class:`~repro.core.describe.stats.DescribeStats` — machine-independent
  evidence of *why* a timing moved, including a cold-vs-warm query pair
  that shows what :class:`~repro.perf.session.QuerySession` reuse saves.

A third mode measures *throughput* rather than single-query latency:
``bench_throughput`` replays a seeded mixed k-SOI/describe workload
(:mod:`repro.serve.workload`) against an
:class:`~repro.serve.server.EngineServer` process pool at increasing
worker counts and appends QPS / latency-percentile records to
``BENCH_serve.json``.

Parallelism is split across two documented code paths: the *untimed*
per-city setup fans out over threads via
:func:`~repro.perf.parallel.run_parallel` (``--jobs``), while *timed*
concurrent query execution always goes through the process-based serving
pool — never the thread pool, whose pure-Python phases serialise on the
GIL.  Latency suites (``soi``/``describe``) still time their query loops
sequentially so medians stay comparable across commits.

Every report carries ``schema_version`` (:data:`SCHEMA_VERSION`) and can
be compared against a committed baseline with :func:`compare_reports`
(``repro bench --check-against``), which flags median/QPS regressions
beyond a tolerance.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.core.describe.greedy import GreedyDescriber
from repro.core.describe.profile import StreetProfile, build_street_profile
from repro.core.describe.st_rel_div import STRelDivDescriber
from repro.core.soi import DEFAULT_EPS, SOIEngine
from repro.core.soi_baseline import BaselineSOI
from repro.datagen.city import City
from repro.datagen.presets import build_preset
from repro.eval.experiments import PAPER_QUERY_KEYWORDS
from repro.obs import export as obs_export
from repro.obs import tracer as obs_tracer
from repro.perf.parallel import run_parallel

DEFAULT_CITIES: tuple[str, ...] = ("vienna", "berlin", "london")
SOI_KS: tuple[int, ...] = (10, 25, 50, 100)
SOI_PSIS: tuple[int, ...] = (1, 2, 3, 4)
DESCRIBE_KS: tuple[int, ...] = (10, 20, 30, 40, 50)
SOI_REPORT = "BENCH_soi.json"
DESCRIBE_REPORT = "BENCH_describe.json"
SERVE_REPORT = "BENCH_serve.json"
BUILD_REPORT = "BENCH_build.json"

SCHEMA_VERSION = 5
"""Report layout version.  Bumped whenever a field is renamed/removed so
:func:`compare_reports` can refuse cross-schema comparisons; version 1 is
the implicit schema of reports written before the field existed.
Version 3 adds the per-city ``obs`` section (tracer overhead medians and
span counts); version 4 adds the serve suite's informational
``obs.latency_sketch`` section (merged quantile-sketch stats, never
regression-gated); version 5 adds the serve suite's
``cache``/``zipf``/``unique_frac`` workload descriptors and the
informational ``cache_stats`` section.  All are pure additions, so
:func:`compare_reports` treats 2 through 5 as mutually comparable (see
:data:`COMPARABLE_SCHEMAS`)."""

COMPARABLE_SCHEMAS = frozenset({2, 3, 4, 5})
"""Schema versions whose shared metrics kept their meaning; reports inside
this set compare against each other, anything else must match exactly."""


def median_sweep(
    fn: Callable[[object], object],
    points: Sequence[object],
    repeats: int,
) -> tuple[float, dict[object, float]]:
    """Median full-sweep seconds and per-point median seconds.

    Runs ``fn`` over every point ``repeats`` times; the *sweep* median
    (one pass over all points) is the headline number because sweep reuse
    is exactly what the session cache accelerates.

    One untimed warm-up pass precedes the timed repeats so every timed
    sweep measures the steady (session-cached) state.  Without it a
    ``repeats=1`` run times the cold sweep — 1.5–4x slower than the warm
    medians a multi-repeat baseline converges to, which would make
    single-repeat smoke checks against committed baselines meaningless.

    The timed repeats run with the cyclic garbage collector quiesced
    (``timeit`` style): container-heavy sweeps otherwise trigger
    generational collections mid-point, turning small (10–30 ms) leaves
    bimodal by ~2x and flaking single-repeat gate checks.
    """
    for point in points:
        fn(point)
    sweeps: list[float] = []
    per_point: dict[object, list[float]] = {p: [] for p in points}
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            for point in points:
                s0 = time.perf_counter()
                fn(point)
                per_point[point].append(time.perf_counter() - s0)
            sweeps.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return (statistics.median(sweeps),
            {p: statistics.median(v) for p, v in per_point.items()})


def environment() -> dict:
    """Version and hardware stamps a report needs to be comparable.

    ``cpu_count`` matters most for the throughput suite: worker scaling
    is physically bounded by the cores available, so a record from a
    1-core container cannot be judged against a 16-core baseline.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


def _build_cities(cities: Sequence[str], scale: float,
                  jobs: int | None) -> list[tuple[str, City, SOIEngine]]:
    """Datasets and engines per city (untimed; safe to parallelise)."""

    def build(name: str) -> tuple[str, City, SOIEngine]:
        city = build_preset(name, scale)
        return name, city, SOIEngine(city.network, city.pois)

    return run_parallel([lambda n=name: build(n) for name in cities],
                        jobs=jobs)


def _cold_warm_counters(
    engine: SOIEngine, keywords: Sequence[str], k: int, eps: float,
) -> dict[str, dict[str, int]]:
    """Counters of a cold query and an identical warm rerun.

    The warm rerun is the session cache's best case: every mass is served
    from the memo, so ``kernel_calls`` collapses to zero.
    """
    engine.invalidate_sessions()
    _res, cold = engine.top_k_with_stats(keywords, k=k, eps=eps)
    _res, warm = engine.top_k_with_stats(keywords, k=k, eps=eps)
    return {"cold": cold.counters(), "warm": warm.counters()}


def bench_soi(
    cities: Sequence[str] = DEFAULT_CITIES,
    repeats: int = 5,
    scale: float = 1.0,
    eps: float = DEFAULT_EPS,
    jobs: int | None = None,
    trace_out: Path | None = None,
) -> dict:
    """The Figure 4 timing suite: SOI vs BL over ``k`` and ``|Psi|`` sweeps.

    ``trace_out`` additionally dumps one Chrome trace per ``k``-sweep point
    (a single traced repetition) into the given directory.
    """
    keywords = PAPER_QUERY_KEYWORDS[:3]
    report: dict = {
        "suite": "soi",
        "schema_version": SCHEMA_VERSION,
        "eps": eps,
        "scale": scale,
        "repeats": repeats,
        "ks": list(SOI_KS),
        "psis": list(SOI_PSIS),
        "keywords": list(keywords),
        "environment": environment(),
        "cities": {},
    }
    for name, _city, engine in _build_cities(cities, scale, jobs):
        engine.cell_maps.augmented_cell_counts_column(eps)  # untimed warm-up
        baseline = BaselineSOI(engine)
        entry: dict = {}
        median, points = median_sweep(
            lambda k: engine.top_k(keywords, k=k, eps=eps), SOI_KS, repeats)
        entry["soi_k_sweep_median_s"] = median
        entry["soi_k_points"] = points
        median, points = median_sweep(
            lambda k: baseline.top_k(keywords, k=k, eps=eps),
            SOI_KS, repeats)
        entry["bl_k_sweep_median_s"] = median
        entry["bl_k_points"] = points
        median, points = median_sweep(
            lambda p: engine.top_k(PAPER_QUERY_KEYWORDS[:p], k=50, eps=eps),
            SOI_PSIS, repeats)
        entry["soi_psi_sweep_median_s"] = median
        entry["soi_psi_points"] = points
        median, points = median_sweep(
            lambda p: baseline.top_k(PAPER_QUERY_KEYWORDS[:p], k=50,
                                     eps=eps),
            SOI_PSIS, repeats)
        entry["bl_psi_sweep_median_s"] = median
        entry["bl_psi_points"] = points
        entry["counters"] = _cold_warm_counters(engine, keywords, 50, eps)
        entry["obs"] = _obs_section(
            lambda k: engine.top_k(keywords, k=k, eps=eps), SOI_KS, repeats)
        if trace_out is not None:
            entry["trace_files"] = _dump_traces(
                Path(trace_out), f"soi_{name}_k",
                lambda k: engine.top_k(keywords, k=k, eps=eps), SOI_KS)
        report["cities"][name] = entry
    return report


def _obs_section(
    fn: Callable[[object], object],
    points: Sequence[object],
    repeats: int,
) -> dict:
    """Tracer overhead on the same sweep with tracing off vs on.

    ``median_trace_off_s`` re-measures the sweep with tracing explicitly
    disabled (the default path every other number in the report uses);
    ``median_trace_on_s`` measures it with the span tracer live, and
    ``span_count`` counts the spans those traced sweeps recorded.  The two
    medians are deliberately *not* named ``*_median_s`` so the baseline
    comparator skips them — tracer overhead is reported, not gated.
    """
    with obs_tracer.tracing_scope(False):
        median_off, _unused = median_sweep(fn, points, repeats)
    tracer = obs_tracer.TRACER
    before = tracer.finished_total
    with obs_tracer.tracing_scope(True):
        median_on, _unused = median_sweep(fn, points, repeats)
    span_count = tracer.finished_total - before
    return {
        "span_count": span_count,
        "median_trace_off_s": median_off,
        "median_trace_on_s": median_on,
        "overhead_ratio": (median_on / median_off if median_off > 0
                           else 0.0),
    }


def _dump_traces(
    out_dir: Path,
    prefix: str,
    fn: Callable[[object], object],
    points: Sequence[object],
) -> list[str]:
    """One Chrome trace file per sweep point (a single traced repetition)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    with obs_tracer.tracing_scope(True):
        for point in points:
            mark = obs_tracer.TRACER.mark()
            fn(point)
            spans = obs_tracer.TRACER.spans_since(mark)
            path = out_dir / f"{prefix}{point}.trace.json"
            obs_export.write_chrome_trace(path, spans)
            written.append(str(path))
    return written


def _profile_for(city: City, engine: SOIEngine, category: str,
                 eps: float) -> StreetProfile | None:
    results = engine.top_k([category], k=1, eps=eps)
    if not results:
        return None
    return build_street_profile(city.network, results[0].street_id,
                                city.photos, eps)


def bench_describe(
    cities: Sequence[str] = DEFAULT_CITIES,
    repeats: int = 3,
    scale: float = 1.0,
    eps: float = DEFAULT_EPS,
    jobs: int | None = None,
    category: str = "shop",
    lam: float = 0.5,
    w: float = 0.5,
    trace_out: Path | None = None,
) -> dict:
    """The Figure 6 timing suite: greedy BL vs ST_Rel+Div over ``k``."""
    report: dict = {
        "suite": "describe",
        "schema_version": SCHEMA_VERSION,
        "eps": eps,
        "scale": scale,
        "repeats": repeats,
        "ks": list(DESCRIBE_KS),
        "category": category,
        "lam": lam,
        "w": w,
        "environment": environment(),
        "cities": {},
    }
    for name, city, engine in _build_cities(cities, scale, jobs):
        profile = _profile_for(city, engine, category, eps)
        if profile is None or len(profile) == 0:
            report["cities"][name] = {"num_photos": 0, "skipped": True}
            continue
        greedy = GreedyDescriber(profile)
        st = STRelDivDescriber(profile)
        entry: dict = {"num_photos": len(profile),
                       "street": profile.street_name}
        median, points = median_sweep(
            lambda k: greedy.select(k, lam, w), DESCRIBE_KS, repeats)
        entry["bl_k_sweep_median_s"] = median
        entry["bl_k_points"] = points
        median, points = median_sweep(
            lambda k: st.select(k, lam, w), DESCRIBE_KS, repeats)
        entry["st_k_sweep_median_s"] = median
        entry["st_k_points"] = points
        top_k = DESCRIBE_KS[-1]
        _pos, bl_stats = greedy.select_with_stats(top_k, lam, w)
        _pos, st_stats = st.select_with_stats(top_k, lam, w)
        entry["counters"] = {f"bl_k{top_k}": bl_stats.counters(),
                             f"st_k{top_k}": st_stats.counters()}
        entry["obs"] = _obs_section(
            lambda k: st.select(k, lam, w), DESCRIBE_KS, repeats)
        if trace_out is not None:
            entry["trace_files"] = _dump_traces(
                Path(trace_out), f"describe_{name}_k",
                lambda k: st.select(k, lam, w), DESCRIBE_KS)
        report["cities"][name] = entry
    return report


# -- cold-path build suite (BENCH_build.json) --------------------------------

def _timed(fn: Callable[[], object]) -> tuple[float, object]:
    """Wall seconds and result of one call."""
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _cold_build_pass(city: City, eps: float,
                     keywords: Sequence[str]) -> dict[str, float]:
    """One fully cold build → augment → layout → query → snapshot sequence.

    Every pass constructs a fresh engine, so nothing is served from a
    previous pass's caches; ``median_sweep`` is unusable here because its
    warm-up pass is exactly what a cold-start bench must not do.

    The pass runs with the cyclic garbage collector quiesced (timeit
    style): the dict-heavy builds allocate enough container objects to
    trigger generational collections mid-phase, which made the
    store-layout timing bimodal (~25 vs ~60 ms on the same inputs).  One
    ``gc.collect()`` up front gives every pass the same clean slate.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _cold_build_pass_timed(city, eps, keywords)
    finally:
        if was_enabled:
            gc.enable()


def _cold_build_pass_timed(city: City, eps: float,
                           keywords: Sequence[str]) -> dict[str, float]:
    from repro.index.cell_maps import SegmentCellMaps
    from repro.serve.snapshot import IndexSnapshot
    from repro.serve.views import attach_engine

    times: dict[str, float] = {}
    times["build_s"], engine = _timed(
        lambda: SOIEngine(city.network, city.pois))
    times["augment_first_s"], _unused = _timed(
        lambda: engine.cell_maps.augmented_cell_counts_column(eps))
    times["store_layout_s"], _unused = _timed(
        lambda: engine.store_layout(eps))
    times["first_query_s"], _unused = _timed(
        lambda: engine.top_k(keywords, k=50, eps=eps))
    times["cold_start_s"] = (times["build_s"] + times["augment_first_s"]
                             + times["store_layout_s"]
                             + times["first_query_s"])
    # Second, distinct eps: below the cache it is a pure threshold filter.
    times["augment_filter_s"], _unused = _timed(
        lambda: engine.cell_maps.augmented_cell_counts_column(eps / 2.0))
    # The from-scratch cost of the same second eps, on maps that carry no
    # eps-sized cache — the denominator of the incremental speedup.
    scratch = SegmentCellMaps(city.network, engine.poi_index.grid)
    times["augment_scratch_s"], _unused = _timed(
        lambda: scratch.augmented_cell_counts_column(eps / 2.0))
    # Above the cache: candidate-ring delta only.
    times["augment_delta_s"], _unused = _timed(
        lambda: engine.cell_maps.augmented_cell_counts_column(2.0 * eps))
    times["export_s"], snapshot = _timed(
        lambda: IndexSnapshot.export(engine, warm_eps=(eps,)))
    try:
        def attach() -> object:
            # Same process as the exporter: keep the default tracker
            # registration (see IndexSnapshot.attach on track=False).
            attached = IndexSnapshot.attach(snapshot.name)
            try:
                return attach_engine(attached)
            finally:
                attached.close()

        times["attach_s"], _unused = _timed(attach)
    finally:
        snapshot.close()
    return times


_BUILD_PHASES = ("build", "augment_first", "store_layout", "first_query",
                 "cold_start", "augment_filter", "augment_scratch",
                 "augment_delta", "export", "attach")

_AUGMENT_COUNTERS = (
    "index.augment.build.fresh", "index.augment.build.filter",
    "index.augment.build.delta",
    "index.augment.candidate_pairs", "index.augment.confirmed_pairs",
    "index.augment.delta_pairs", "index.augment.cache_rows_reused",
    "index.augment.cache_reused",
)


def bench_build(
    cities: Sequence[str] = DEFAULT_CITIES,
    repeats: int = 3,
    scale: float = 1.0,
    eps: float = DEFAULT_EPS,
    jobs: int | None = None,
) -> dict:
    """The cold-path suite: index construction and first-query timings.

    Per city and repeat, a fresh engine runs the full cold sequence
    (build, first-``eps`` augmentation, store layout, first query, a
    second smaller ``eps`` served from the incremental cache, a larger
    ``eps`` delta, snapshot export and attach); the per-phase medians are
    the gated ``*_median_s`` metrics.  ``incremental_augment_speedup``
    compares the from-scratch augmentation of the second ``eps`` with the
    cache filter that serves it.

    ``jobs`` is accepted for CLI symmetry but unused: cold timings must
    not share the machine with parallel builds.
    """
    del jobs  # cold-path timings are deliberately sequential
    from repro.obs.metrics import REGISTRY

    keywords = PAPER_QUERY_KEYWORDS[:3]
    report: dict = {
        "suite": "build",
        "schema_version": SCHEMA_VERSION,
        "eps": eps,
        "scale": scale,
        "repeats": repeats,
        "keywords": list(keywords),
        "environment": environment(),
        "cities": {},
    }
    for name in cities:
        city = build_preset(name, scale)  # untimed dataset generation
        before = {key: REGISTRY.counter(key) for key in _AUGMENT_COUNTERS}
        passes = [_cold_build_pass(city, eps, keywords)
                  for _ in range(repeats)]
        after = {key: REGISTRY.counter(key) for key in _AUGMENT_COUNTERS}
        entry: dict = {
            f"{phase}_median_s": statistics.median(
                p[f"{phase}_s"] for p in passes)
            for phase in _BUILD_PHASES}
        entry["counters"] = {
            "augment": {key: (after[key] - before[key]) // repeats
                        for key in _AUGMENT_COUNTERS}}
        entry["num_segments"] = sum(
            1 for _seg in city.network.iter_segments())
        entry["num_pois"] = len(city.pois)
        entry["speedups"] = {
            "incremental_augment_speedup": (
                entry["augment_scratch_median_s"]
                / entry["augment_filter_median_s"]
                if entry["augment_filter_median_s"] > 0 else 0.0),
        }
        report["cities"][name] = entry
    return report


def write_report(report: dict, path: Path) -> None:
    """Write one bench report as stable, diff-friendly JSON."""
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


# -- history log (BENCH_history.jsonl) ---------------------------------------

def history_record(report: dict) -> dict:
    """One compact history line for a bench report or throughput run.

    Keeps only what trend-reading needs — suite, per-city medians (or QPS
    per worker count for serve runs), the cold/warm counter dumps and the
    environment stamp.  Deliberately carries **no timestamp**: records
    are ordered by their position in the log and stay byte-reproducible
    for a given commit, matching the repo's determinism convention.
    """
    suite = report.get("suite")
    record: dict = {
        "schema_version": report.get("schema_version"),
        "suite": suite,
        "environment": report.get("environment", {}),
        "cities": {},
    }
    if suite == "serve":
        record["micro_batch"] = report.get("micro_batch", 1)
        record["cache"] = report.get("cache", False)
        if report.get("zipf") is not None:
            record["zipf"] = report["zipf"]
        if report.get("unique_frac"):
            record["unique_frac"] = report["unique_frac"]
        for name, entry in report.get("cities", {}).items():
            record["cities"][name] = {
                "qps": {str(rec["workers"]): rec["qps"]
                        for rec in entry.get("records", ())},
            }
        return record
    for name, entry in report.get("cities", {}).items():
        city: dict = {
            "medians": {key: value for key, value in entry.items()
                        if key.endswith("_median_s")},
        }
        if "counters" in entry:
            city["counters"] = entry["counters"]
        record["cities"][name] = city
    return record


def append_history(report: dict, path: Path) -> dict:
    """Append one :func:`history_record` line to a ``.jsonl`` log.

    The log is append-only newline-delimited JSON with sorted keys, so
    each run adds exactly one diff line to the committed history file.
    """
    record = history_record(report)
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    return record


def read_history(path: Path) -> list[dict]:
    """All records of a history log (blank lines skipped)."""
    if not path.exists():
        return []
    return [json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


# -- throughput suite (BENCH_serve.json) -------------------------------------

def worker_counts(max_workers: int) -> list[int]:
    """The 1..N sweep points: powers of two up to ``max_workers``, plus N."""
    if max_workers < 1:
        raise ValueError(f"max_workers must be at least 1, got {max_workers}")
    counts = {1 << shift for shift in range(max_workers.bit_length())
              if 1 << shift <= max_workers}
    counts.add(max_workers)
    return sorted(counts)


def _percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) as the nearest-rank order statistic."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def bench_throughput(
    cities: Sequence[str] = DEFAULT_CITIES,
    workers: int = 4,
    concurrency: int | None = None,
    queries: int = 64,
    seed: int = 0,
    scale: float = 1.0,
    eps: float = DEFAULT_EPS,
    jobs: int | None = None,
    verify: bool = False,
    micro_batch: int = 1,
    trace_out: Path | None = None,
    cache: bool = False,
    zipf: float | None = None,
    unique_frac: float = 0.0,
) -> dict:
    """Replay a seeded mixed workload against 1..``workers`` processes.

    For every city and worker count the same ``queries``-request workload
    is served twice through a fresh :class:`~repro.serve.server.EngineServer`
    — an untimed warm pass (snapshot attach, session/describer warm-up)
    and a timed pass — and recorded as QPS plus worker-side latency
    percentiles.  ``concurrency`` bounds the in-flight window (default:
    four per worker).  ``micro_batch`` sets the per-worker drain size
    (``--batch``): workers pull up to that many queued requests per loop
    turn and run same-signature runs against one shared session.
    ``verify=True`` additionally replays the workload on the in-process
    engine and fails unless every payload is identical (the serving
    layer's accelerator contract).

    At the full pool size each city additionally records an
    ``obs.latency_sketch`` section — live p50/p90/p99 per request kind
    and per worker from the merged streaming quantile sketches the
    workers ship with every response.  The section is informational:
    its keys are never regression-gated by :func:`compare_reports`.
    ``trace_out`` (a directory) serves one extra *untimed* traced replay
    per city at the full pool size and writes the stitched cross-process
    Chrome trace there, one ``serve.request`` parent span per request
    with the worker's spans nested beneath it.

    ``zipf`` switches the workload to the Zipf-skewed repeat mix of
    :func:`~repro.serve.workload.make_zipf_workload` with that exponent
    (``unique_frac`` of the requests become cache-adversarial one-offs);
    ``cache`` turns on the server's multi-level result cache.  With
    ``verify=True`` the cached payloads are still compared bit-for-bit
    against the *uncached* in-process replay, which is the cache's
    exactness contract.  Because the warm pass also warms the result
    cache, the timed pass measures steady-state serving: even an
    all-unique stream replays warm, so its ``cache_stats`` legitimately
    report hits.
    """
    from repro.errors import ReproError
    from repro.serve.server import EngineServer, serve_request
    from repro.serve.workload import DEFAULT_ZIPF_S, make_workload, \
        make_zipf_workload

    run: dict = {
        "suite": "serve",
        "schema_version": SCHEMA_VERSION,
        "queries": queries,
        "seed": seed,
        "eps": eps,
        "scale": scale,
        "concurrency": concurrency,
        "micro_batch": micro_batch,
        "cache": bool(cache),
        "zipf": zipf,
        "unique_frac": unique_frac,
        "worker_counts": worker_counts(workers),
        "verified": bool(verify),
        "environment": environment(),
        "cities": {},
    }
    for name, city, engine in _build_cities(cities, scale, jobs):
        if zipf is not None or unique_frac > 0:
            requests = make_zipf_workload(
                engine, city.photos, num_queries=queries, seed=seed,
                s=DEFAULT_ZIPF_S if zipf is None else zipf,
                unique_frac=unique_frac, eps=eps)
        else:
            requests = make_workload(engine, city.photos,
                                     num_queries=queries, seed=seed, eps=eps)
        inline = ([serve_request(engine, city.photos, request)
                   for request in requests] if verify else None)
        entry: dict = {"num_requests": len(requests), "records": []}
        full_pool = run["worker_counts"][-1]
        for count in run["worker_counts"]:
            with EngineServer.for_engine(engine, city.photos, workers=count,
                                         micro_batch=micro_batch,
                                         cache=cache) as server:
                warm0 = time.perf_counter()
                server.run(requests, window=concurrency)
                warm_s = time.perf_counter() - warm0
                t0 = time.perf_counter()
                payloads, service = server.run_with_stats(
                    requests, window=concurrency)
                wall_s = time.perf_counter() - t0
                if count == full_pool:
                    # Informational only (see docstring): none of these
                    # keys match a _metric_direction pattern, so a
                    # --check-against run never gates on them.
                    entry["obs.latency_sketch"] = server.latency_summary()
                    if cache:
                        entry["cache_stats"] = server.cache_stats()
                    if trace_out is not None:
                        trace_dir = Path(trace_out)
                        trace_dir.mkdir(parents=True, exist_ok=True)
                        with obs_tracer.tracing_scope(True):
                            server.run(requests, window=concurrency)
                        trace_path = server.export_trace(
                            trace_dir / f"serve_{name}.trace.json")
                        entry["trace_file"] = str(trace_path)
            if inline is not None and payloads != inline:
                raise ReproError(
                    f"{name}: worker payloads diverged from the in-process "
                    f"engine at {count} worker(s)")
            entry["records"].append({
                "workers": count,
                "wall_s": wall_s,
                "warm_wall_s": warm_s,
                "qps": len(requests) / wall_s if wall_s > 0 else 0.0,
                "latency_p50_s": _percentile(service, 0.50),
                "latency_p90_s": _percentile(service, 0.90),
                "latency_p99_s": _percentile(service, 0.99),
            })
        base_qps = entry["records"][0]["qps"]
        entry["qps_speedup_vs_1_worker"] = {
            str(record["workers"]):
                (record["qps"] / base_qps if base_qps > 0 else 0.0)
            for record in entry["records"]}
        run["cities"][name] = entry
    return run


def append_serve_run(run: dict, path: Path) -> dict:
    """Append one throughput run to ``BENCH_serve.json`` and rewrite it.

    The serve report is an append-only log (``{"runs": [...]}``): worker
    scaling is hardware-dependent, so history across machines is worth
    more than a single overwritten record.  An existing file with a
    different ``schema_version`` is restarted rather than mixed.
    """
    report = {"suite": "serve", "schema_version": SCHEMA_VERSION, "runs": []}
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
        if (previous.get("suite") == "serve"
                and previous.get("schema_version") == SCHEMA_VERSION
                and isinstance(previous.get("runs"), list)):
            report["runs"] = previous["runs"]
    report["runs"].append(run)
    write_report(report, path)
    return report


# -- baseline comparison (--check-against) -----------------------------------

def _metric_direction(path: tuple[str, ...]) -> str | None:
    """Whether a numeric leaf is lower-better, higher-better, or ignored."""
    key = path[-1] if path else ""
    if key == "qps" or (len(path) >= 2
                        and path[-2] == "qps_speedup_vs_1_worker"):
        return "higher"
    if key.endswith("_median_s") or key in (
            "wall_s", "warm_wall_s", "latency_p50_s", "latency_p90_s",
            "latency_p99_s"):
        return "lower"
    if len(path) >= 2 and path[-2].endswith("_points"):
        return "lower"  # per-point median seconds, keyed by sweep value
    return None


def compare_reports(
    current: dict, baseline: dict, tolerance: float = 0.2,
    min_delta_s: float = 0.005,
) -> list[dict]:
    """Regressions of ``current`` versus a committed baseline report.

    Walks both reports in parallel and compares every shared numeric
    metric: medians/latencies regress when the current value exceeds the
    baseline by more than ``tolerance`` (relative); QPS-style metrics
    regress when they drop below ``baseline * (1 - tolerance)``.  Returns
    one dict per regression (empty list = pass).  Raises ``ValueError``
    on mismatched ``schema_version`` — cross-schema numbers are not
    comparable.

    Seconds-valued (lower-is-better) metrics must additionally exceed the
    baseline by ``min_delta_s`` absolute: per-point values in a
    single-repeat smoke run are single samples of millisecond-scale
    queries, where scheduler jitter alone can breach any relative
    tolerance.  The floor is far below every headline median's tolerance
    band, so it only desensitises the sub-10ms leaves.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    cur_schema = current.get("schema_version", 1)
    base_schema = baseline.get("schema_version", 1)
    if cur_schema != base_schema and not (
            cur_schema in COMPARABLE_SCHEMAS
            and base_schema in COMPARABLE_SCHEMAS):
        raise ValueError(
            f"cannot compare schema_version {cur_schema} against baseline "
            f"schema_version {base_schema}")
    regressions: list[dict] = []

    def walk(cur: object, base: object, path: tuple[str, ...]) -> None:
        if isinstance(cur, dict) and isinstance(base, dict):
            # JSON round-trips stringify int keys (sweep points).
            cur_by_key = {str(key): value for key, value in cur.items()}
            for key, base_value in base.items():
                key = str(key)
                if key in cur_by_key:
                    walk(cur_by_key[key], base_value, path + (key,))
            return
        if isinstance(cur, list) and isinstance(base, list):
            # The serve suite's per-worker-count records: align on the
            # "workers" key so partial sweeps compare the right rows.
            def row_key(item: object, index: int) -> str:
                if isinstance(item, dict) and "workers" in item:
                    return f"workers={item['workers']}"
                return str(index)

            cur_rows = {row_key(item, i): item for i, item in enumerate(cur)}
            for i, base_item in enumerate(base):
                key = row_key(base_item, i)
                if key in cur_rows:
                    walk(cur_rows[key], base_item, path + (key,))
            return
        if (isinstance(cur, (int, float)) and isinstance(base, (int, float))
                and not isinstance(cur, bool) and not isinstance(base, bool)):
            direction = _metric_direction(path)
            if direction is None or base <= 0:
                return
            if direction == "lower":
                regressed = (cur > base * (1.0 + tolerance)
                             and cur - base > min_delta_s)
            else:
                regressed = cur < base * (1.0 - tolerance)
            if regressed:
                regressions.append({
                    "metric": ".".join(path),
                    "direction": direction,
                    "baseline": float(base),
                    "current": float(cur),
                    "ratio": float(cur / base),
                })

    walk(current, baseline, ())
    return regressions
