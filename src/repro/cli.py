"""Command-line interface.

Eight subcommands cover the everyday workflow without writing Python:

* ``repro generate`` — build a synthetic city preset and save it as the
  three JSON files the loaders understand;
* ``repro stats``    — print Table-1-style statistics for a saved city;
* ``repro soi``      — answer a k-SOI query over a saved city;
* ``repro describe`` — photo-summarise a street of a saved city;
* ``repro bench``    — time Figure 4 and Figure 6 (``--mode soi`` /
  ``--mode describe``, both by default: ``BENCH_soi.json`` /
  ``BENCH_describe.json``), printing each city's figure series and
  failing when a method's answer differs from its baseline's, or, with
  ``--mode build``, the cold-path build suite (``BENCH_build.json``);
  ``--check-against`` compares the fresh report to a committed baseline
  and fails on regressions (serving is measured by ``perfbench/``);
* ``repro lint``     — run the repo's custom static-analysis pass;
* ``repro metrics``  — run a small query workload and dump the unified
  :mod:`repro.obs` metrics registry (counters, gauges, latency
  histograms), optionally with the span self-time profile and the slow
  query log; ``--openmetrics`` emits the registry in OpenMetrics/
  Prometheus text format and ``--slowlog-json`` dumps the slow-query
  log (with trace ids) as JSON;
* ``repro top``      — replay a serving workload through a live
  :class:`~repro.serve.server.EngineServer` and render rolling QPS,
  in-flight requests, the worker queue (tasks bound for a worker and not
  yet answered), per-worker heartbeat age and latency quantiles until
  the workload drains.

``repro soi --check`` / ``repro describe --check`` additionally enable the
runtime invariant contracts of :mod:`repro.analysis.contracts` for the
query (the ``REPRO_CHECK=1`` environment variable does the same globally),
and ``--trace`` enables :mod:`repro.obs` span tracing for the query (the
``REPRO_TRACE=1`` environment variable does the same globally).

A :class:`~repro.errors.ReproError` (a typed query, data or serve
failure) ends the command with one ``error: <ErrorType>: <message>`` line
on stderr and exit code 2, not a traceback.

Run as ``python -m repro <subcommand> --help``.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.cli import add_lint_arguments, run_lint
from repro.analysis.contracts import enable_contracts
from repro.core.describe.profile import DEFAULT_RHO, build_street_profile
from repro.core.describe.st_rel_div import STRelDivDescriber
from repro.core.soi import DEFAULT_EPS, SOIEngine
from repro.datagen.presets import CITY_PRESETS, build_preset
from repro.errors import ReproError
from repro.eval.reporting import format_table
from repro.network.io import (
    load_network_json,
    load_photos_json,
    load_pois_json,
    save_network_json,
    save_photos_json,
    save_pois_json,
)

NETWORK_FILE = "network.json"
POIS_FILE = "pois.json"
PHOTOS_FILE = "photos.json"


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """An argparse type: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _positive_float(text: str) -> float:
    """An argparse type: a finite float greater than 0."""
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    """An argparse type: a float that is not negative (nor NaN)."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Streets of Interest: identify and describe "
                    "(EDBT 2016 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate",
                         help="generate a synthetic city preset")
    gen.add_argument("--preset", choices=sorted(CITY_PRESETS),
                     default="vienna")
    gen.add_argument("--scale", type=_positive_float, default=1.0,
                     help="size multiplier (default 1.0)")
    gen.add_argument("--out", type=Path, required=True,
                     help="output directory (created if missing)")

    stats = sub.add_parser("stats", help="dataset statistics (Table 1)")
    stats.add_argument("--data", type=Path, required=True,
                       help="directory written by 'repro generate'")

    soi = sub.add_parser("soi", help="answer a k-SOI query")
    soi.add_argument("--data", type=Path, required=True)
    soi.add_argument("--keywords", nargs="+", required=True)
    soi.add_argument("-k", type=int, default=10)
    soi.add_argument("--eps", type=float, default=DEFAULT_EPS)
    soi.add_argument("--check", action="store_true",
                     help="enable the runtime invariant contracts "
                          "(slower; raises ContractViolation on a bug)")
    soi.add_argument("--trace", action="store_true",
                     help="enable span tracing and print the per-phase "
                          "self-time profile after the query")

    describe = sub.add_parser("describe",
                              help="photo-summarise a street")
    describe.add_argument("--data", type=Path, required=True)
    describe.add_argument("--street", type=int, default=None,
                          help="street id (default: top SOI for --keywords)")
    describe.add_argument("--keywords", nargs="+", default=["shop"])
    describe.add_argument("-k", type=int, default=3)
    describe.add_argument("--eps", type=float, default=DEFAULT_EPS)
    describe.add_argument("--rho", type=float, default=DEFAULT_RHO)
    describe.add_argument("--lam", type=float, default=0.5,
                          help="relevance/diversity trade-off (Equation 2)")
    describe.add_argument("-w", type=float, default=0.5,
                          help="spatial/textual weight")
    describe.add_argument("--check", action="store_true",
                          help="enable the runtime invariant contracts")
    describe.add_argument("--trace", action="store_true",
                          help="enable span tracing and print the "
                               "per-phase self-time profile")

    bench = sub.add_parser(
        "bench", help="run the performance suites, write BENCH_*.json",
        description="Time the Figure 4 (k-SOI sweeps) and Figure 6 "
                    "(greedy describe) configurations on synthetic city "
                    "presets, print each city's figure series and write "
                    "JSON reports with medians and work counters; exit 1 "
                    "without writing a report when a method's answer "
                    "differs from its baseline's at a timed point.  "
                    "--mode build times the cold index build instead.  "
                    "Serving is measured by perfbench/.")
    bench.add_argument("--mode", choices=("soi", "describe", "build"),
                       default=None,
                       help="soi: Figure 4 (BENCH_soi.json); describe: "
                            "Figure 6 (BENCH_describe.json); build: "
                            "cold-path index construction timings "
                            "(BENCH_build.json); default: soi and "
                            "describe")
    bench.add_argument("--trace-out", type=Path, default=None,
                       metavar="DIR",
                       help="soi / describe: additionally run each sweep "
                            "point once with span tracing on and write a "
                            "Chrome trace-event file per point into DIR "
                            "(open at chrome://tracing)")
    bench.add_argument("--cities", nargs="+", default=None,
                       metavar="PRESET",
                       help="city presets to measure (default: "
                            "vienna berlin london)")
    bench.add_argument("--repeats", type=_positive_int, default=None,
                       help="sweep repetitions per median "
                            "(default: 5 for soi, 3 for describe and "
                            "build)")
    bench.add_argument("--scale", type=_positive_float, default=1.0,
                       help="dataset size multiplier (default 1.0)")
    bench.add_argument("--out", type=Path, default=Path("."),
                       help="directory for the BENCH_*.json reports")
    bench.add_argument("--jobs", type=_positive_int, default=None,
                       help="thread workers for the untimed per-city "
                            "setup; the timed work is sequential")
    bench.add_argument("--history", type=Path, default=None,
                       metavar="FILE",
                       help="append a one-line JSON summary (suite, "
                            "medians, counters, environment) per "
                            "produced report to this .jsonl log")
    bench.add_argument("--check-against", type=Path, default=None,
                       metavar="FILE",
                       help="compare the fresh report of the same suite "
                            "against this committed BENCH_*.json and "
                            "exit non-zero when a median regresses or a "
                            "work counter changes")
    bench.add_argument("--tolerance", type=_non_negative_float, default=0.2,
                       help="relative regression tolerance for "
                            "--check-against (default 0.2)")

    lint = sub.add_parser(
        "lint", help="run the custom static-analysis pass",
        description="Repo-specific file-local AST lint: determinism, "
                    "numeric safety, hygiene, performance, observability "
                    "and shared-state rules (see repro.analysis).")
    add_lint_arguments(lint)

    metrics = sub.add_parser(
        "metrics",
        help="run a query workload and dump the repro.obs metrics",
        description="Answer the k-SOI query --repeat times over a saved "
                    "city, then dump the process-local metrics registry "
                    "(counters, gauges and log-bucket latency "
                    "histograms).  --trace additionally prints the span "
                    "self-time profile of the workload; --slow-threshold "
                    "arms the slow-query log and prints what it caught.")
    metrics.add_argument("--data", type=Path, required=True,
                         help="directory written by 'repro generate'")
    metrics.add_argument("--keywords", nargs="+", default=["shop"])
    metrics.add_argument("-k", type=int, default=10)
    metrics.add_argument("--eps", type=float, default=DEFAULT_EPS)
    metrics.add_argument("--repeat", type=_positive_int, default=3,
                         help="how many times to run the query "
                              "(default 3; exercises session caching)")
    metrics.add_argument("--cache", action="store_true",
                         help="serve the repeats through a result "
                              "cache so the serve.cache.* counters and "
                              "gauges (hits out of lookups, hit rate, "
                              "bytes) appear in the dump")
    metrics.add_argument("--json", action="store_true",
                         help="dump the registry as JSON instead of a "
                              "table (machine-readable)")
    metrics.add_argument("--trace", action="store_true",
                         help="enable span tracing and include the "
                              "per-span-name self-time profile")
    metrics.add_argument("--slow-threshold", type=float, default=None,
                         metavar="SECONDS",
                         help="arm the slow-query log at this threshold "
                              "(0 records every query) and print what "
                              "it captured")
    metrics.add_argument("--openmetrics", action="store_true",
                         help="emit the registry in OpenMetrics/"
                              "Prometheus text format instead of the "
                              "table (stable sorted output, no "
                              "timestamps)")
    metrics.add_argument("-o", "--openmetrics-out", type=Path,
                         default=None, metavar="FILE",
                         help="with --openmetrics: write the exposition "
                              "to FILE instead of stdout")
    metrics.add_argument("--slowlog-json", action="store_true",
                         help="dump the slow-query log as JSON (entries "
                              "carry the trace id bound when the query "
                              "ran, if any); implies --slow-threshold 0 "
                              "unless one is given")

    top = sub.add_parser(
        "top",
        help="live serve telemetry: QPS, worker queue, worker heartbeats",
        description="Replay a seeded mixed workload through a live "
                    "EngineServer pool and render a telemetry frame per "
                    "interval — rolling QPS, in-flight requests, the "
                    "worker queue (tasks bound for a worker and not yet "
                    "answered: the parent's backlog plus the task pipe), "
                    "per-worker heartbeat age and state (a stalled "
                    "worker is flagged, not just a crashed one), shared-"
                    "memory resident bytes, and live p50/p90/p99 per "
                    "request kind from the merged latency sketches.")
    top.add_argument("--data", type=Path, required=True,
                     help="directory written by 'repro generate'")
    top.add_argument("--workers", type=_positive_int, default=2,
                     help="worker processes (default 2)")
    top.add_argument("--queries", type=_positive_int, default=32,
                     help="workload size (default 32)")
    top.add_argument("--seed", type=_non_negative_int, default=0,
                     help="workload RNG seed")
    top.add_argument("--batch", type=_positive_int, default=1,
                     help="per-worker micro-batch size (default 1)")
    top.add_argument("--cache", action="store_true",
                     help="enable the two-level result cache; frames "
                          "gain a cache line (hits out of lookups, hit "
                          "rate, bytes)")
    top.add_argument("--interval", type=_positive_float, default=0.5,
                     help="seconds between frames (default 0.5)")
    top.add_argument("--frames", type=_positive_int, default=None,
                     help="stop after N frames (default: run until the "
                          "workload drains)")
    top.add_argument("--stall-after", type=_positive_float, default=None,
                     metavar="SECONDS",
                     help="heartbeat age past which a live worker is "
                          "reported as stalled")
    return parser


def _load_city(data_dir: Path):
    network = load_network_json(data_dir / NETWORK_FILE)
    pois = load_pois_json(data_dir / POIS_FILE)
    photos = load_photos_json(data_dir / PHOTOS_FILE)
    return network, pois, photos


def _cmd_generate(args: argparse.Namespace) -> int:
    city = build_preset(args.preset, args.scale)
    args.out.mkdir(parents=True, exist_ok=True)
    save_network_json(city.network, args.out / NETWORK_FILE)
    save_pois_json(city.pois, args.out / POIS_FILE)
    save_photos_json(city.photos, args.out / PHOTOS_FILE)
    print(f"wrote {args.preset} (scale {args.scale}) to {args.out}: "
          f"{len(city.network.segments)} segments, {len(city.pois)} POIs, "
          f"{len(city.photos)} photos")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    network, pois, photos = _load_city(args.data)
    stats = network.stats()
    print(format_table(
        ["metric", "value"],
        [["segments", int(stats["num_segments"])],
         ["streets", int(stats["num_streets"])],
         ["vertices", int(stats["num_vertices"])],
         ["min segment length", f"{stats['min_segment_length']:.6f}"],
         ["max segment length", f"{stats['max_segment_length']:.6f}"],
         ["total length", f"{stats['total_length']:.4f}"],
         ["POIs", len(pois)],
         ["photos", len(photos)]],
        title=f"dataset at {args.data}"))
    return 0


def _cmd_soi(args: argparse.Namespace) -> int:
    if args.check:
        enable_contracts()
    if args.trace:
        from repro.obs.tracer import enable_tracing

        enable_tracing()
    network, pois, _photos = _load_city(args.data)
    engine = SOIEngine(network, pois)
    mark = _trace_mark(args)
    results = engine.top_k(args.keywords, k=args.k, eps=args.eps)
    if not results:
        print("no street matches the query keywords")
        return 1
    rows = [[rank, res.street_id, res.street_name, f"{res.interest:,.0f}"]
            for rank, res in enumerate(results, start=1)]
    print(format_table(["rank", "street id", "street", "interest"], rows,
                       title=f"top-{args.k} SOIs for {args.keywords}"))
    if args.trace:
        _print_span_profile(mark)
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    if args.check:
        enable_contracts()
    if args.trace:
        from repro.obs.tracer import enable_tracing

        enable_tracing()
    network, pois, photos = _load_city(args.data)
    mark = _trace_mark(args)
    street_id = args.street
    if street_id is None:
        engine = SOIEngine(network, pois)
        results = engine.top_k(args.keywords, k=1, eps=args.eps)
        if not results:
            print("no street matches the query keywords")
            return 1
        street_id = results[0].street_id
    profile = build_street_profile(network, street_id, photos,
                                   eps=args.eps, rho=args.rho)
    if len(profile) == 0:
        print(f"street {street_id} has no associated photos")
        return 1
    selected = STRelDivDescriber(profile).select(args.k, args.lam, args.w)
    rows = []
    for pos in selected:
        photo = profile.photos[pos]
        rows.append([photo.id, f"{photo.x:.5f}", f"{photo.y:.5f}",
                     ", ".join(sorted(photo.keywords)[:6])])
    print(format_table(
        ["photo id", "x", "y", "tags"], rows,
        title=f"{args.k}-photo summary of {profile.street_name!r} "
              f"({len(profile)} candidates)"))
    if args.trace:
        _print_span_profile(mark)
    return 0


def _trace_mark(args: argparse.Namespace) -> int:
    """Tracer high-water mark before the traced work (0 when not tracing)."""
    if not getattr(args, "trace", False):
        return 0
    from repro.obs.tracer import TRACER

    return TRACER.mark()


def _print_span_profile(mark: int) -> None:
    """Print the per-span-name self-time profile recorded since ``mark``."""
    from repro.obs.export import self_time_by_name
    from repro.obs.tracer import TRACER

    spans = TRACER.spans_since(mark)
    if not spans:
        print("trace: no spans recorded")
        return
    profile = self_time_by_name(spans)
    total_ns = sum(profile.values()) or 1
    rows = [[name, count, f"{ns / 1e6:.3f}", f"{100 * ns / total_ns:.1f}%"]
            for name, (count, ns) in _profile_rows(spans, profile)]
    print(format_table(
        ["span", "count", "self ms", "share"], rows,
        title=f"span self-time profile ({len(spans)} spans)"))


def _profile_rows(spans, profile: dict[str, int]):
    """(name, (count, self_ns)) pairs, largest self-time first."""
    counts: dict[str, int] = {}
    for span in spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    return sorted(((name, (counts[name], ns)) for name, ns in profile.items()),
                  key=lambda item: (-item[1][1], item[0]))


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf import bench

    cities = tuple(args.cities) if args.cities else bench.DEFAULT_CITIES
    common = {"scale": args.scale, "jobs": args.jobs}
    suites = {
        "soi": (bench.SOI_REPORT, lambda: bench.bench_soi(
            cities, repeats=args.repeats or 5, trace_out=args.trace_out,
            **common)),
        "describe": (bench.DESCRIBE_REPORT, lambda: bench.bench_describe(
            cities, repeats=args.repeats or 3, trace_out=args.trace_out,
            **common)),
        "build": (bench.BUILD_REPORT, lambda: bench.bench_build(
            cities, repeats=args.repeats or 3, **common)),
    }
    selected = (args.mode,) if args.mode else ("soi", "describe")
    produced: dict[str, dict] = {}
    for suite in selected:
        try:
            produced[suite] = suites[suite][1]()
        except bench.Disagreement as exc:
            print(f"error: {exc}; no report written", file=sys.stderr)
            return 1
        print("\n".join(bench.summary_lines(produced[suite])))
    args.out.mkdir(parents=True, exist_ok=True)
    for suite, report in produced.items():
        path = args.out / suites[suite][0]
        bench.write_report(report, path)
        print(f"wrote {path}")
    if args.history is not None:
        for report in produced.values():
            bench.append_history(report, args.history)
        print(f"appended {len(produced)} record(s) to {args.history}")
    if args.check_against is not None:
        return _check_against_baseline(args, produced)
    return 0


def _check_against_baseline(args: argparse.Namespace,
                            produced: dict[str, dict]) -> int:
    """Compare freshly produced report(s) against a committed baseline."""
    import json

    from repro.perf import bench

    baseline = json.loads(args.check_against.read_text(encoding="utf-8"))
    suite = baseline.get("suite")
    if suite not in produced:
        print(f"error: baseline {args.check_against} is a {suite!r} report "
              f"but this run produced {sorted(produced) or 'nothing'}")
        return 2
    regressions = bench.compare_reports(produced[suite], baseline,
                                        tolerance=args.tolerance)
    if not regressions:
        print(f"check-against {args.check_against}: OK "
              f"(tolerance {args.tolerance:.0%})")
        return 0
    print(f"check-against {args.check_against}: "
          f"{len(regressions)} regression(s) beyond {args.tolerance:.0%}")
    for item in regressions:
        print(f"  {item['metric']}: {item['baseline']:.6g} -> "
              f"{item['current']:.6g} ({item['ratio']:.2f}x, "
              f"{item['direction']}-is-better)")
    return 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.obs.metrics import REGISTRY
    from repro.obs.slowlog import SLOWLOG
    from repro.obs.tracer import DROPPED_SPANS_METRIC, TRACER, enable_tracing

    if args.trace:
        enable_tracing()
    if args.slowlog_json and args.slow_threshold is None:
        args.slow_threshold = 0.0
    if args.slow_threshold is not None:
        SLOWLOG.configure(args.slow_threshold)
    network, pois, _photos = _load_city(args.data)
    engine = SOIEngine(network, pois)
    mark = TRACER.mark() if args.trace else 0
    if args.cache:
        # Serve the repeats through the result cache: repeat 2..N
        # are cache hits, so the serve.cache.* counters/gauges show up
        # in the table / JSON / OpenMetrics output below.
        from repro.perf.result_cache import ResultCache
        from repro.serve.server import SOIRequest, serve_request_cached

        cache = ResultCache(generation=engine.index_generation)
        request = SOIRequest(keywords=tuple(args.keywords), k=args.k,
                             eps=args.eps)
        for _repeat in range(args.repeat):
            serve_request_cached(engine, None, request, cache)
    else:
        for _repeat in range(args.repeat):
            engine.top_k(args.keywords, k=args.k, eps=args.eps)
    dump = REGISTRY.to_dict()
    if args.slowlog_json:
        print(json.dumps({"slow_queries": SLOWLOG.records()},
                         indent=2, sort_keys=True))
        return 0
    if args.openmetrics:
        from repro.obs.openmetrics import registry_to_openmetrics

        text = registry_to_openmetrics(dump)
        if args.openmetrics_out is not None:
            args.openmetrics_out.write_text(text, encoding="utf-8")
            print(f"wrote {args.openmetrics_out}")
        else:
            sys.stdout.write(text)
        return 0
    if args.json:
        payload: dict = {"metrics": dump}
        if args.trace:
            from repro.obs.export import self_time_by_name

            spans = TRACER.spans_since(mark)
            payload["spans"] = {
                "count": len(spans),
                "self_time_ns": self_time_by_name(spans),
            }
        if args.slow_threshold is not None:
            payload["slow_queries"] = SLOWLOG.records()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    counter_rows = [[name, value]
                    for name, value in sorted(dump["counters"].items())]
    gauge_rows = [[name, f"{value:g}"]
                  for name, value in sorted(dump["gauges"].items())]
    if counter_rows:
        print(format_table(["counter", "value"], counter_rows,
                           title="counters"))
    if gauge_rows:
        print(format_table(["gauge", "value"], gauge_rows, title="gauges"))
    cache_hits = dump["counters"].get("serve.cache.hits", 0)
    cache_lookups = cache_hits + dump["counters"].get("serve.cache.misses", 0)
    if cache_lookups:
        print(f"result cache: {cache_hits}/{cache_lookups} hits "
              f"({cache_hits / cache_lookups:.0%}), "
              f"{int(dump['gauges'].get('serve.cache.bytes', 0))} bytes in "
              f"{int(dump['gauges'].get('serve.cache.entries', 0))} entries")
    histogram_rows = [
        [name, hist["count"], f"{hist['sum']:.6f}",
         f"{hist['sum'] / hist['count']:.6f}" if hist["count"] else "-"]
        for name, hist in sorted(dump["histograms"].items())]
    if histogram_rows:
        print(format_table(["histogram", "count", "sum s", "mean s"],
                           histogram_rows, title="latency histograms"))
    if args.trace:
        _print_span_profile(mark)
        dropped = REGISTRY.counter(DROPPED_SPANS_METRIC) or TRACER.dropped
        if dropped:
            print(f"warning: {dropped} span(s) dropped from the tracer "
                  f"ring buffer — the profile above is truncated")
    if args.slow_threshold is not None:
        records = SLOWLOG.records()
        print(f"slow-query log (threshold {args.slow_threshold:g}s): "
              f"{len(records)} record(s)")
        for record in records:
            trace_id = record.get("trace_id") or "-"
            print(f"  {record['kind']} {record['descriptor']} "
                  f"took {record['seconds']:.6f}s "
                  f"({len(record['spans'])} spans, trace {trace_id})")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import threading

    from repro.serve.server import DEFAULT_STALL_AFTER_S, EngineServer
    from repro.serve.workload import make_workload

    stall_after = (DEFAULT_STALL_AFTER_S if args.stall_after is None
                   else args.stall_after)
    network, pois, photos = _load_city(args.data)
    engine = SOIEngine(network, pois)
    requests = make_workload(engine, photos, num_queries=args.queries,
                             seed=args.seed)
    print(f"repro top — {len(requests)} requests, {args.workers} worker(s), "
          f"micro-batch {args.batch}"
          + (", cache on" if args.cache else ""))
    with EngineServer.for_engine(engine, photos, workers=args.workers,
                                 micro_batch=args.batch,
                                 cache=args.cache) as server:
        failure: list[BaseException] = []

        def pump() -> None:
            try:
                server.run(requests)
            except BaseException as exc:  # repro-lint: disable=REP-H302 (background pump thread: the failure is surfaced to the user after the frames)
                failure.append(exc)

        runner = threading.Thread(target=pump, name="repro-top-pump",
                                  daemon=True)
        runner.start()
        frames = 0
        while runner.is_alive():
            runner.join(timeout=args.interval)
            frames += 1
            _print_top_frame(server.telemetry(stall_after_s=stall_after))
            if args.frames is not None and frames >= args.frames:
                break
        runner.join()
        _print_top_frame(server.telemetry(stall_after_s=stall_after),
                         final=True)
        if failure:
            print(f"error: workload failed: {failure[0]}")
            return 1
    return 0


def _print_top_frame(telemetry: dict, final: bool = False) -> None:
    """Render one ``repro top`` frame from an EngineServer telemetry dict."""
    shm_mib = telemetry["shm_bytes"] / (1024 * 1024)
    tag = "final" if final else "live"
    print(f"[{tag}] qps {telemetry['qps']:.1f} | "
          f"inflight {telemetry['inflight']} | "
          f"worker queue {telemetry['queue_depth']} | "
          f"done {telemetry['completed_total']} | "
          f"shm {shm_mib:.1f} MiB")
    cache = telemetry.get("cache")
    if cache is not None:
        print(f"  cache: {cache['hit_rate']:.0%} hit "
              f"({cache['hits']}/{cache['hits'] + cache['misses']}) | "
              f"{cache['bytes'] / 1024:.1f} KiB")
    for worker in telemetry["workers"]:
        last = worker["last_seq"]
        print(f"  worker {worker['worker']}: {worker['status']:<7} "
              f"state {worker['state']:<8} "
              f"beat {worker['heartbeat_age_s']:.2f}s ago  "
              f"last req {'-' if last is None else last}")
    kinds = telemetry["latency"]["kinds"]
    for kind in sorted(kinds):
        stats = kinds[kind]
        print(f"  {kind}: n={stats['count']} "
              f"p50 {stats['p50_s'] * 1e3:.2f}ms "
              f"p90 {stats['p90_s'] * 1e3:.2f}ms "
              f"p99 {stats['p99_s'] * 1e3:.2f}ms "
              f"(slowest {stats['slowest'] or '-'})")


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "soi": _cmd_soi,
    "describe": _cmd_describe,
    "bench": _cmd_bench,
    "lint": run_lint,
    "metrics": _cmd_metrics,
    "top": _cmd_top,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
