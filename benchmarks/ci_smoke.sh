#!/bin/sh
# CI smoke gate: lint, the full test suite (plain, then with the runtime
# contracts on), then latency sweeps compared
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
# Result-cache smoke: the same Zipf repeat-mix stream served by a
# 2-worker pool with the multi-level cache on and off must produce
# bit-identical payloads, and the cached run must actually hit (repeats
# answered from cache or coalesced onto an in-flight twin).  Untimed:
# the >=3x speedup acceptance lives in the committed BENCH_serve curves;
# this gates correctness of the reuse paths within the smoke budget.
cat > "$SCRATCH/cache_smoke.py" <<'CACHE_SMOKE'
from repro.core.soi import SOIEngine
from repro.datagen import build_preset
from repro.serve import EngineServer
from repro.serve.workload import make_zipf_workload


def main() -> None:
    city = build_preset("vienna", scale=0.1)
    engine = SOIEngine(city.network, city.pois)
    requests = make_zipf_workload(engine, city.photos, num_queries=24,
                                  seed=2, pool_size=6)
    with EngineServer.for_engine(engine, city.photos, workers=2,
                                 micro_batch=4) as server:
        baseline = server.run(requests)
    with EngineServer.for_engine(engine, city.photos, workers=2,
                                 micro_batch=4, cache=True) as server:
        cached = server.run(requests)
        stats = server.cache_stats()
    if cached != baseline:
        raise SystemExit("cache smoke: cached payloads diverge from the "
                         "uncached run")
    reused = stats["hits"] + stats["coalesced_waiters"]
    if reused <= 0:
        raise SystemExit("cache smoke: Zipf repeats never hit the cache "
                         f"(stats: {stats})")
    print(f"cache smoke: {len(requests)} requests bit-identical, "
          f"{stats['hits']} hits + {stats['coalesced_waiters']} coalesced "
          f"({stats['hit_rate']:.0%} hit rate)")


if __name__ == "__main__":
    main()
CACHE_SMOKE
python "$SCRATCH/cache_smoke.py"

echo "ci_smoke: OK"
