#!/bin/sh
# CI smoke gate: lint, the full test suite (plain, then with the runtime
# contracts on), the serve benchmark's tests, then latency sweeps compared
# against the committed baselines at the repo root with loose
# tolerances (sized to absorb shared-runner noise while still tripping
# on the 2x+ regressions the gates exist for).  The benches warm the
# session caches before timing, quiesce the garbage collector around
# the timed repeats, and the comparator's built-in 5ms noise floor
# keeps millisecond leaves from flaking the gate.
#
# Run from anywhere:  sh benchmarks/ci_smoke.sh
#
# The bench step writes its fresh report into a throwaway directory so a
# smoke run can never clobber the committed baselines.

set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}src"

SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT INT TERM

# Full-tree lint: file-local rules on src/repro (including the REP-P4xx
# perf family — P404 guards against heapq.nlargest rescans creeping back
# into core/ loops) plus the cross-module REP-C6xx/F7xx/R8xx pass over
# tests/ and benchmarks/ too (resource-safety rules cover bench output
# handles there).
python -m repro lint src/repro tests benchmarks
python -m pytest -x -q
# The suite must also be green with every runtime contract enabled
# (Lemma 1 bounds, Definition 1 cross-checks, C_eps re-derivation).
REPRO_CHECK=1 python -m pytest -x -q
# The serve benchmark's own tests: its traced replay patches program
# names (engine.sessions.get, top_k_with_stats, store_layout, ...), so a
# rename fails here instead of in the next benchmark run.
python -m pytest -x -q perfbench/test_perfbench.py
# The committed baselines are GC-quiesced medians of three, so a
# single-repeat sample flakes against them on scheduler jitter alone:
# gate on medians of three as well, at a tolerance sized for the
# regressions that matter (losing a session cache or an index fast
# path shows up as 2x+ on these leaves).
python -m repro bench --mode soi --repeats 3 \
    --check-against BENCH_soi.json --tolerance 0.75 \
    --out "$SCRATCH"
# Describe leaves are 10-30 ms medians, small enough that scheduler
# jitter alone reaches ~1.4x on a busy runner: take medians of three
# (the timed loops are milliseconds; city construction dominates the
# step either way) and loosen the tolerance — describer regressions
# worth gating on (losing the heap selection, re-sorting per k) are 2x+.
python -m repro bench --mode describe --repeats 3 \
    --check-against BENCH_describe.json --tolerance 0.75 \
    --out "$SCRATCH"
# Cold-path build gate: engine construction, eps-augmentation (fresh /
# filter / delta), store layout, snapshot export/attach.  Speedup keys
# in the baseline are informational (as are the scalar-pass keys older
# baselines still carry: the comparator walks only keys both reports
# share); it gates only the *_median_s leaves.  Unlike the query benches
# these timings are deliberately UNWARMED one-shots, so run-to-run
# variance on shared runners is large; the loose tolerance still trips
# on the regressions that matter (the per-segment Python builders the
# batched kernels replaced were 4-15x slower on these phases).
python -m repro bench --mode build --repeats 1 \
    --check-against BENCH_build.json --tolerance 1.5 \
    --out "$SCRATCH"
# Distributed-tracing smoke: serve a mixed workload on a 2-worker pool
# with tracing on, and schema-check the stitched cross-process Chrome
# trace (every request span must resolve to a serve.request parent
# carrying worker id / queue-wait annotations).  Untimed: this gates the
# trace plumbing, not throughput.  The script goes through a real file
# (not stdin) because the spawn start method re-imports __main__ in the
# worker processes.
cat > "$SCRATCH/trace_smoke.py" <<'TRACE_SMOKE'
import json
import sys
from pathlib import Path

from repro.core.soi import SOIEngine
from repro.datagen import build_preset
from repro.obs.export import validate_serve_trace
from repro.obs.tracer import tracing_scope
from repro.serve import EngineServer
from repro.serve.workload import make_workload


def main() -> None:
    city = build_preset("vienna", scale=0.1)
    engine = SOIEngine(city.network, city.pois)
    requests = make_workload(engine, city.photos, num_queries=8, seed=1)
    trace_path = Path(sys.argv[1]) / "serve_smoke.trace.json"
    with EngineServer.for_engine(engine, city.photos, workers=2) as server:
        with tracing_scope(True):
            server.run(requests)
        server.export_trace(trace_path)
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    roots = [e for e in trace["traceEvents"]
             if e["args"]["parent_id"] == -1]
    problems = validate_serve_trace(trace)
    if problems:
        raise SystemExit("stitched trace invalid:\n  "
                         + "\n  ".join(problems))
    if len(roots) != len(requests):
        raise SystemExit(f"expected {len(requests)} serve.request roots, "
                         f"got {len(roots)}")
    print(f"trace smoke: {len(roots)} stitched requests, "
          f"{len(trace['traceEvents']) - len(roots)} worker spans, "
          f"schema OK")


if __name__ == "__main__":
    main()
TRACE_SMOKE
python "$SCRATCH/trace_smoke.py" "$SCRATCH"
# Result-cache smoke: six mixed requests, each served four times in a
# fixed order by a 2-worker pool with the two-level cache on and off,
# must produce bit-identical payloads.  Every request of the cached run
# is a parent-cache hit, a worker-cache hit or computed, and each worker
# computes a request at most once (nothing is evicted at this size), so
# all but workers x distinct requests must hit.  Untimed: this gates
# correctness of the reuse paths within the smoke budget.
# A submit-all pass then submits a 500-request stream of the same six
# requests in the same fixed order before collecting any result, with
# the cache off and on, and must match server.run of that stream.
# Uncached, every request crosses both pipes and the unread results
# overflow the result pipe, so the parent's task backlog and its bound
# on written tasks are exercised with two readers and two writers.
cat > "$SCRATCH/cache_smoke.py" <<'CACHE_SMOKE'
import time

from repro.core.soi import SOIEngine
from repro.datagen import build_preset
from repro.serve import EngineServer
from repro.serve.workload import make_workload

WORKERS = 2


def submit_all(server, requests, fill_result_pipe: bool) -> list:
    """Submit every request before collecting any; payloads in order.

    With ``fill_result_pipe``, collection starts only once every worker
    is blocked writing to the full result pipe (busy, heartbeat stale).
    """
    seqs = [server.submit(request) for request in requests]
    deadline = time.monotonic() + 30.0
    while fill_result_pipe and not all(
            worker["state"] == "busy" and worker["status"] == "stalled"
            for worker in server.worker_health(stall_after_s=0.2)):
        if time.monotonic() > deadline:
            raise SystemExit("cache smoke: the workers never blocked on "
                             "the full result pipe")
        time.sleep(0.05)
    payloads = {}
    for _ in seqs:
        seq, payload, _service = server.next_result(timeout=60.0)
        payloads[seq] = payload
    return [payloads[seq] for seq in seqs]


def main() -> None:
    city = build_preset("vienna", scale=0.1)
    engine = SOIEngine(city.network, city.pois)
    distinct = make_workload(engine, city.photos, num_queries=6, seed=2)
    requests = distinct * 4
    with EngineServer.for_engine(engine, city.photos, workers=WORKERS,
                                 micro_batch=4) as server:
        baseline = server.run(requests)
    with EngineServer.for_engine(engine, city.photos, workers=WORKERS,
                                 micro_batch=4, cache=True) as server:
        cached = server.run(requests)
        stats = server.cache_stats()
    if cached != baseline:
        raise SystemExit("cache smoke: cached payloads diverge from the "
                         "uncached run")
    if stats["hits"] < len(requests) - WORKERS * len(set(distinct)):
        raise SystemExit("cache smoke: a worker computed a request twice "
                         f"(stats: {stats})")
    print(f"cache smoke: {len(requests)} requests bit-identical, "
          f"{stats['hits']} hits ({stats['hit_rate']:.0%} hit rate)")
    stream = [distinct[i % len(distinct)] for i in range(500)]
    expected = None
    for cache in (False, True):
        with EngineServer.for_engine(engine, city.photos, workers=WORKERS,
                                     micro_batch=4, cache=cache) as server:
            if expected is None:
                expected = server.run(stream)
            if submit_all(server, stream,
                          fill_result_pipe=not cache) != expected:
                raise SystemExit("cache smoke: submit-all payloads with the "
                                 f"cache {'on' if cache else 'off'} diverge "
                                 "from server.run")
    print(f"cache smoke: {len(stream)} requests submitted before any "
          "collection bit-identical to server.run, cache off and on")


if __name__ == "__main__":
    main()
CACHE_SMOKE
python "$SCRATCH/cache_smoke.py"
# Paging smoke: a fixed list of two signatures times two eps, and one
# signature's weighted pages at both eps (the weighted slot-mass sums),
# each paged at k = 10, 20, ..., 80, served by a 2-worker pool with the
# cache on and off.  Payloads must be bit-identical to each other and to
# Algorithm 1 (SOIEngine.top_k, weighted where the page is) in process,
# so the served ranking cannot drift from the paper's algorithm; later
# pages must be answered from complete rankings (cache hits: the pages
# ask for increasing k, so any hit is a later page).  Every served k-SOI
# ships its complete ranking, so the pool runs at most one k-SOI query
# per worker and (signature, eps, weighted) triple.  Every ranking on
# this city holds more than 80 streets, so only a complete ranking can
# answer a later page.  A third, cache-on pool is spawned with
# REPRO_CHECK=1 in its environment: its workers re-derive every page
# they slice from a cached columnar ranking and compare it
# (check_prefix_slice), and its payloads must equal the uncached run.
# Untimed, like the cache smoke.
cat > "$SCRATCH/paging_smoke.py" <<'PAGING_SMOKE'
import os

from repro.core.soi import SOIEngine
from repro.datagen import build_preset
from repro.serve import EngineServer
from repro.serve.server import SOIRequest

WORKERS = 2
PAGES = [SOIRequest(keywords=signature, k=k, eps=eps, weighted=weighted)
         for k in range(10, 90, 10)
         for signature, weighted in ((("food", "shop"), False),
                                     (("shop",), False), (("food",), True))
         for eps in (0.0003, 0.0005)]


def serve(engine, cache: bool):
    with EngineServer.for_engine(engine, workers=WORKERS, micro_batch=4,
                                 cache=cache) as server:
        payloads = server.run(PAGES)
        return (payloads, server.cache_stats() if cache else None,
                server.metrics().counter("soi.queries"))


def main() -> None:
    city = build_preset("london", scale=0.5)
    engine = SOIEngine(city.network, city.pois)
    baseline, _stats, _executed = serve(engine, cache=False)
    cached, stats, executed = serve(engine, cache=True)
    if cached != baseline:
        raise SystemExit("paging smoke: cached payloads diverge from the "
                         "uncached run")
    for page, payload in zip(PAGES, cached):
        if payload != engine.top_k(page.keywords, page.k, eps=page.eps,
                                   weighted=page.weighted):
            raise SystemExit(f"paging smoke: served page {page} differs "
                             "from SOIEngine.top_k")
    if stats["hits"] <= 0:
        raise SystemExit("paging smoke: no page was answered from a "
                         f"complete ranking (stats: {stats})")
    if executed >= len(PAGES):
        raise SystemExit(f"paging smoke: {executed} k-SOI queries ran for "
                         f"{len(PAGES)} requests")
    triples = len({(page.keywords, page.eps, page.weighted)
                   for page in PAGES})
    if executed > WORKERS * triples:
        raise SystemExit(f"paging smoke: {executed} k-SOI queries ran for "
                         f"{triples} (signature, eps, weighted) triples on "
                         f"{WORKERS} workers")
    # Spawned workers read REPRO_CHECK from the environment they inherit;
    # this process read it at import, so its own checks stay as they were.
    os.environ["REPRO_CHECK"] = "1"
    checked, checked_stats, checked_executed = serve(engine, cache=True)
    if checked != baseline:
        raise SystemExit("paging smoke: payloads of the pool with the "
                         "runtime contracts on diverge from the uncached run")
    print(f"paging smoke: {len(PAGES)} pages bit-identical to the uncached "
          f"run and to Algorithm 1, {executed} k-SOI queries for {triples} "
          f"(signature, eps, weighted) triples, {stats['hits']} "
          f"complete-ranking hits; with REPRO_CHECK=1 in the workers, "
          f"{checked_stats['hits']} hits and {checked_executed} k-SOI "
          "queries, re-derivations included")


if __name__ == "__main__":
    main()
PAGING_SMOKE
python "$SCRATCH/paging_smoke.py"
# Describe smoke: the describe candidate streets (top 80 streets of each
# category query) with the most photos on london at scale 0.5, each
# summarised at k = 5 and 30 by a 1-worker pool with the cache on and
# off.  Payloads must be bit-identical to each other and to the
# definitional oracle (tests/oracle.describe_ids), which computes R_s,
# Phi_s, maxD(s) and Definitions 4 and 6 without the column passes of
# the profile and the describer.  Untimed, like the smokes above.
cat > "$SCRATCH/describe_smoke.py" <<'DESCRIBE_SMOKE'
from repro.core.describe.profile import photos_near_street
from repro.core.soi import DEFAULT_EPS, SOIEngine
from repro.datagen import build_preset
from repro.datagen.vocab import CATEGORIES
from repro.serve import EngineServer
from repro.serve.server import DescribeRequest
from repro.serve.workload import describe_candidates

from tests.oracle import describe_ids

STREETS = 4
KS = (5, 30)


def main() -> None:
    city = build_preset("london", scale=0.5)
    engine = SOIEngine(city.network, city.pois)
    candidates = describe_candidates(engine, tuple(CATEGORIES),
                                     per_category=80)
    photos = {street: len(photos_near_street(city.network, street,
                                             city.photos, DEFAULT_EPS))
              for street in candidates}
    streets = sorted(candidates, key=lambda s: (-photos[s], s))[:STREETS]
    requests = [DescribeRequest(street_id=street, k=k)
                for street in streets for k in KS]
    served = {}
    for cache in (False, True):
        with EngineServer.for_engine(engine, city.photos, workers=1,
                                     micro_batch=4, cache=cache) as server:
            served[cache] = server.run(requests)
    if served[True] != served[False]:
        raise SystemExit("describe smoke: cached payloads diverge from the "
                         "uncached run")
    for request, payload in zip(requests, served[False]):
        expected = describe_ids(city.network, city.photos,
                                request.street_id, request.k, request.eps,
                                request.lam, request.w, request.rho)
        if payload != expected:
            raise SystemExit(f"describe smoke: served {request} differs "
                             "from the oracle")
    print(f"describe smoke: {len(requests)} summaries of streets with "
          f"{[photos[s] for s in streets]} photos bit-identical to the "
          "uncached run and to the oracle")


if __name__ == "__main__":
    main()
DESCRIBE_SMOKE
PYTHONPATH="$PYTHONPATH:." python "$SCRATCH/describe_smoke.py"

echo "ci_smoke: OK"
