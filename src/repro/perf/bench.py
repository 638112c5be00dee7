"""The ``repro bench`` harness: the timer of Figures 4 and 6.

This module is the one place that times the paper's two performance
studies — Figure 4 (k-SOI, the SOI algorithm vs the BL baseline over
``k`` and ``|Psi|``) and Figure 6 (photo selection, ST_Rel+Div vs the
exhaustive greedy BL over ``k``, ``lambda`` and ``w``) — and writes
``BENCH_soi.json`` / ``BENCH_describe.json`` reports that combine:

* **medians**: the median full-sweep wall time over ``repeats`` runs plus
  per-point medians (robust against scheduler noise, comparable across
  commits as long as the machine is);
* **work counters**: kernel calls, cache traffic and pruning counts from
  :class:`~repro.core.results.SOIStats` /
  :class:`~repro.core.describe.stats.DescribeStats` — machine-independent
  evidence of *why* a timing moved: a cold-vs-warm query pair that shows
  what :class:`~repro.perf.session.QuerySession` reuse saves, the
  segments Algorithm 1 saw at each ``|Psi|`` point and whether its run
  was complete, and the photos each describer examined at every point.

Before a point is timed, its answers are checked: SOI's top-k must equal
BL's, and ST_Rel+Div's summary the greedy's.  A difference raises
:class:`Disagreement`, and ``repro bench`` then exits non-zero without
writing a report.  :func:`summary_lines` renders each city's figure
series from a report.

Per-city setup is untimed and fans out over threads via
:func:`~repro.perf.parallel.run_parallel` (``--jobs``); the timed query
loops run sequentially so medians stay comparable across commits.  The
serve path is measured end to end by ``perfbench/``, not here.

Every report carries ``schema_version`` (:data:`SCHEMA_VERSION`) and can
be compared against a committed baseline with :func:`compare_reports`
(``repro bench --check-against``), which flags median regressions beyond
a tolerance and any changed work counter.
"""

from __future__ import annotations

import gc
import json
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
from repro.eval.reporting import format_series
from repro.obs import export as obs_export
from repro.obs import tracer as obs_tracer
from repro.perf.parallel import run_parallel

DEFAULT_CITIES: tuple[str, ...] = ("vienna", "berlin", "london")
SOI_KS: tuple[int, ...] = (10, 25, 50, 100)
SOI_PSIS: tuple[int, ...] = (1, 2, 3, 4)
SOI_PSI_K = 50
DESCRIBE_KS: tuple[int, ...] = (10, 20, 30, 40, 50)
DESCRIBE_WEIGHTS: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
DESCRIBE_WEIGHT_K = 20
SOI_REPORT = "BENCH_soi.json"
DESCRIBE_REPORT = "BENCH_describe.json"
BUILD_REPORT = "BENCH_build.json"

SCHEMA_VERSION = 5
"""Report layout version.  Bumped whenever a field is renamed/removed so
:func:`compare_reports` can refuse cross-schema comparisons; version 1 is
the implicit schema of reports written before the field existed.
Version 3 adds the per-city ``obs`` section (tracer overhead medians and
span counts); versions 4 and 5 added sections only to the serve suite's
report, which is no longer written.  All are pure additions, so
:func:`compare_reports` treats 2 through 5 as mutually comparable (see
:data:`COMPARABLE_SCHEMAS`) and the committed version-3 and version-5
baselines stay valid.  Later additions (the per-point counters and the
Figure 6 ``lambda``/``w`` sweeps) are pure additions too."""

COMPARABLE_SCHEMAS = frozenset({2, 3, 4, 5})
"""Schema versions whose shared metrics kept their meaning; reports inside
this set compare against each other, anything else must match exactly."""


class Disagreement(Exception):
    """At a timed point the paper's method and its baseline answered
    differently: SOI's top-k against BL's, or ST_Rel+Div's summary
    against the greedy's."""


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
    """Version and hardware stamps a report needs to be comparable."""
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


def _record_sweep(entry: dict, label: str, fn: Callable[[object], object],
                  points: Sequence[object], repeats: int) -> None:
    """Time one sweep into ``<label>_sweep_median_s`` and
    ``<label>_points`` (see :func:`median_sweep`)."""
    median, per_point = median_sweep(fn, points, repeats)
    entry[f"{label}_sweep_median_s"] = median
    entry[f"{label}_points"] = per_point


def _soi_point(city: str, engine: SOIEngine, baseline: BaselineSOI,
               keywords: Sequence[str], k: int, eps: float):
    """Algorithm 1's :class:`~repro.core.results.SOIStats` at one timed
    point, once its top ``k`` is checked against BL's."""
    ranking, stats = engine.top_k_with_stats(keywords, k, eps=eps)
    if ranking[:k] != baseline.top_k(keywords, k, eps=eps):
        raise Disagreement(f"{city}: SOI's top-{k} for {list(keywords)} "
                           "differs from BL's")
    return stats


def bench_soi(
    cities: Sequence[str] = DEFAULT_CITIES,
    repeats: int = 5,
    scale: float = 1.0,
    eps: float = DEFAULT_EPS,
    jobs: int | None = None,
    trace_out: Path | None = None,
) -> dict:
    """The Figure 4 timing suite: SOI vs BL over ``k`` (at ``|Psi| = 3``)
    and ``|Psi|`` (at ``k = 50``).

    Raises :class:`Disagreement` when SOI's top-k differs from BL's at a
    timed point.  ``trace_out`` additionally dumps one Chrome trace per
    ``k``-sweep point (a single traced repetition) into the given
    directory.
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
        "psi_k": SOI_PSI_K,
        "keywords": list(keywords),
        "environment": environment(),
        "cities": {},
    }
    sweeps = {
        "k": (SOI_KS, lambda k: (keywords, k)),
        "psi": (SOI_PSIS, lambda p: (PAPER_QUERY_KEYWORDS[:p], SOI_PSI_K)),
    }
    for name, city, engine in _build_cities(cities, scale, jobs):
        engine.cell_maps.augmented_cell_counts_column(eps)  # untimed warm-up
        baseline = BaselineSOI(engine)
        entry: dict = {"num_segments": len(city.network.segments)}
        work: dict = {}
        for axis, (points, query) in sweeps.items():
            work[axis] = {point: _soi_point(name, engine, baseline,
                                            *query(point), eps)
                          for point in points}
            for method, run in (("soi", engine.top_k),
                                ("bl", baseline.top_k)):
                _record_sweep(
                    entry, f"{method}_{axis}",
                    lambda point, run=run, query=query: run(*query(point),
                                                            eps=eps),
                    points, repeats)
        entry["counters"] = _cold_warm_counters(engine, keywords, SOI_PSI_K,
                                                eps)
        entry["counters"]["psi"] = {
            point: {"segments_seen": stats.segments_seen,
                    "complete": int(stats.complete)}
            for point, stats in work["psi"].items()}
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


def _describe_point(city: str, describers: dict, k: int, lam: float,
                    w: float) -> dict:
    """Each describer's :class:`~repro.core.describe.stats.DescribeStats`
    at one timed point, once ST_Rel+Div's summary is checked against the
    greedy's."""
    picks: dict = {}
    stats: dict = {}
    for method, describer in describers.items():
        picks[method], stats[method] = describer.select_with_stats(k, lam, w)
    if picks["st"] != picks["bl"]:
        raise Disagreement(f"{city}: ST_Rel+Div's {k}-photo summary at "
                           f"lambda={lam}, w={w} differs from the greedy's")
    return stats


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
    """The Figure 6 timing suite: greedy BL vs ST_Rel+Div over ``k`` (at
    ``lam`` and ``w``), and over ``lambda`` and ``w`` at ``k = 20``.

    Raises :class:`Disagreement` when ST_Rel+Div's summary differs from
    the greedy's at a timed point.
    """
    report: dict = {
        "suite": "describe",
        "schema_version": SCHEMA_VERSION,
        "eps": eps,
        "scale": scale,
        "repeats": repeats,
        "ks": list(DESCRIBE_KS),
        "weights": list(DESCRIBE_WEIGHTS),
        "weight_k": DESCRIBE_WEIGHT_K,
        "category": category,
        "lam": lam,
        "w": w,
        "environment": environment(),
        "cities": {},
    }
    sweeps = {
        "k": (DESCRIBE_KS, lambda k: (k, lam, w)),
        "lam": (DESCRIBE_WEIGHTS, lambda x: (DESCRIBE_WEIGHT_K, x, w)),
        "w": (DESCRIBE_WEIGHTS, lambda x: (DESCRIBE_WEIGHT_K, lam, x)),
    }
    for name, city, engine in _build_cities(cities, scale, jobs):
        profile = _profile_for(city, engine, category, eps)
        if profile is None or len(profile) == 0:
            report["cities"][name] = {"num_photos": 0, "skipped": True}
            continue
        describers = {"bl": GreedyDescriber(profile),
                      "st": STRelDivDescriber(profile)}
        entry: dict = {"num_photos": len(profile),
                       "street": profile.street_name}
        work: dict = {}
        for axis, (points, args) in sweeps.items():
            work[axis] = {point: _describe_point(name, describers,
                                                 *args(point))
                          for point in points}
            for method, describer in describers.items():
                _record_sweep(
                    entry, f"{method}_{axis}",
                    lambda point, describer=describer, args=args:
                        describer.select(*args(point)),
                    points, repeats)
        top_k = DESCRIBE_KS[-1]
        entry["counters"] = {f"{method}_k{top_k}":
                             work["k"][top_k][method].counters()
                             for method in describers}
        entry["counters"]["photos_examined"] = {
            f"{method}_{axis}": {point: stats[method].photos_examined
                                 for point, stats in per_point.items()}
            for axis, per_point in work.items() for method in describers}
        st = describers["st"]
        entry["obs"] = _obs_section(
            lambda k: st.select(k, lam, w), DESCRIBE_KS, repeats)
        if trace_out is not None:
            entry["trace_files"] = _dump_traces(
                Path(trace_out), f"describe_{name}_k",
                lambda k: st.select(k, lam, w), DESCRIBE_KS)
        report["cities"][name] = entry
    return report


def _ms_series(label: str, points: dict) -> str:
    return format_series(f"{label} (ms)", list(points),
                         [seconds * 1e3 for seconds in points.values()],
                         digits=3)


def _count_series(label: str, points: dict) -> str:
    return format_series(label, list(points), list(points.values()),
                         digits=0)


def summary_lines(report: dict) -> list[str]:
    """What a report shows, as text: per city, Figure 4's series for the
    soi suite, Figure 6's for describe, and the cold start for build."""
    lines: list[str] = []
    for name, entry in report["cities"].items():
        if report["suite"] == "soi":
            lines.extend(_figure4_lines(report, name, entry))
        elif report["suite"] == "describe":
            lines.extend(_figure6_lines(report, name, entry))
        else:
            lines.append(
                f"{name}: cold start {entry['cold_start_median_s']*1e3:.1f} "
                f"ms, filter augment "
                f"{entry['augment_filter_median_s']*1e3:.2f} ms "
                f"(incremental "
                f"{entry['speedups']['incremental_augment_speedup']:.1f}x)")
    return lines


def _figure4_lines(report: dict, name: str, entry: dict) -> list[str]:
    psi = entry["counters"]["psi"]
    return [
        f"-- Figure 4 ({name}), varying k (|Psi|={len(report['keywords'])})"
        " --",
        _ms_series("SOI", entry["soi_k_points"]),
        _ms_series("BL ", entry["bl_k_points"]),
        f"-- Figure 4 ({name}), varying |Psi| (k={report['psi_k']}) --",
        _ms_series("SOI", entry["soi_psi_points"]),
        _ms_series("BL ", entry["bl_psi_points"]),
        _count_series(f"SOI segments seen (of {entry['num_segments']})",
                      {p: work["segments_seen"] for p, work in psi.items()}),
        "SOI complete: " + ", ".join(
            f"{p}={bool(work['complete'])}" for p, work in psi.items()),
        "SOI top-k == BL top-k at every timed point",
    ]


def _figure6_lines(report: dict, name: str, entry: dict) -> list[str]:
    if entry.get("skipped"):
        return [f"-- Figure 6 ({name}): no photos on the top "
                f"{report['category']!r} street, skipped --"]
    lam, w, k = report["lam"], report["w"], report["weight_k"]
    examined = entry["counters"]["photos_examined"]
    lines = []
    for axis, title in (
            ("k", f"|Rs| = {entry['num_photos']} photos, varying k "
                  f"(lambda={lam}, w={w})"),
            ("lam", f"varying lambda (k={k}, w={w})"),
            ("w", f"varying w (k={k}, lambda={lam})")):
        lines += [
            f"-- Figure 6 ({name}), {title} --",
            _ms_series("ST_Rel+Div", entry[f"st_{axis}_points"]),
            _ms_series("BL        ", entry[f"bl_{axis}_points"]),
            _count_series("ST_Rel+Div (photos examined)",
                          examined[f"st_{axis}"]),
            _count_series("BL         (photos examined)",
                          examined[f"bl_{axis}"]),
        ]
    lines.append("ST_Rel+Div summary == BL summary at every timed point")
    return lines


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
    """One compact history line for a bench report.

    Keeps only what trend-reading needs — suite, per-city medians, the
    cold/warm counter dumps and the environment stamp.  Deliberately
    carries **no timestamp**: records are ordered by their position in
    the log and stay byte-reproducible for a given commit, matching the
    repo's determinism convention.
    """
    record: dict = {
        "schema_version": report.get("schema_version"),
        "suite": report.get("suite"),
        "environment": report.get("environment", {}),
        "cities": {},
    }
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


# -- baseline comparison (--check-against) -----------------------------------

def _metric_direction(path: tuple[str, ...]) -> str | None:
    """Whether a numeric leaf is lower-better, exact (``"equal"``: a work
    counter, which no host speed can move), or ignored."""
    if "counters" in path[:-1]:
        return "equal"
    key = path[-1] if path else ""
    if key.endswith("_median_s"):
        return "lower"
    if len(path) >= 2 and path[-2].endswith("_points"):
        return "lower"  # per-point median seconds, keyed by sweep value
    return None


def compare_reports(
    current: dict, baseline: dict, tolerance: float = 0.2,
    min_delta_s: float = 0.005,
) -> list[dict]:
    """Regressions of ``current`` versus a committed baseline report.

    Walks both reports' dicts in parallel and compares every shared
    numeric metric: a median regresses when the current value exceeds
    the baseline by more than ``tolerance`` (relative); a work counter
    (any leaf under a ``counters`` key, zeros included) regresses
    whenever it differs at all, since counters are exact.  Lists (the
    sweep axes and keywords a report echoes) are not compared.  Returns
    one dict per regression (empty list = pass).  Raises ``ValueError``
    on mismatched ``schema_version`` — cross-schema numbers are not
    comparable.

    Medians must additionally exceed the baseline by ``min_delta_s``
    absolute: per-point values in a single-repeat smoke run are single
    samples of millisecond-scale queries, where scheduler jitter alone
    can breach any relative tolerance.  The floor is far below every
    headline median's tolerance band, so it only desensitises the
    sub-10ms leaves.
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
        if (isinstance(cur, (int, float)) and isinstance(base, (int, float))
                and not isinstance(cur, bool) and not isinstance(base, bool)):
            direction = _metric_direction(path)
            if direction == "equal":
                regressed = cur != base
            elif direction is None or base <= 0:
                return
            else:
                regressed = (cur > base * (1.0 + tolerance)
                             and cur - base > min_delta_s)
            if regressed:
                regressions.append({
                    "metric": ".".join(path),
                    "direction": direction,
                    "baseline": float(base),
                    "current": float(cur),
                    "ratio": float(cur / base) if base else float("inf"),
                })

    walk(current, baseline, ())
    return regressions
