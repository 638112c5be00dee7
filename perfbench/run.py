"""Serve benchmark: one EngineServer worker over the london preset.

Run from the repository root::

    python3 perfbench/run.py --workload zipf_repeat --seed 1 \
        --seconds 25 --trace 0

Each run generates the city (untimed), then makes timed passes for
``--seconds`` (at least one, see ``serving.run_passes``).  A pass sets a
fresh server up and drives the run's seeded request stream through it
from one client thread in a closed loop with 4 requests in flight; each
end-to-end metric is the median over the passes.  Every pass serves the
same fixed number of requests (``streams.PASS_REQUESTS``).  After the
timed passes every payload is compared with the uncached in-process
answer.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(one untraced pass, then ``layers.py``).  Earlier lines describe the
traffic, each pass and the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

import serving

CALIBRATION_ROUNDS = 400_000
MIN_PASSES = 1
"""Passes a run makes however slow the host is.  On a host slowed 4x a
single pass of each workload is all that fits the time allowed for the
benchmark's runs; on a calm host a run makes three or four."""

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "mem_pss_mb": "MB",
}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (a host-speed stamp)."""
    started = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ROUNDS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - started


def pass_values(done: serving.Pass, attempted: int) -> dict:
    """The end-to-end figures of one pass; a failed request misses every
    percentile."""
    served = done.served
    missing = attempted - len(served.latency_s)
    latencies = list(served.latency_s.values()) + [float("inf")] * missing
    return {
        "setup_s": done.setup["setup_s"],
        "throughput_qps": len(served.latency_s) / served.wall_s,
        "latency_p50_ms": 1e3 * serving.percentile(latencies, 0.50),
        "latency_p99_ms": 1e3 * serving.percentile(latencies, 0.99),
        "mem_pss_mb": done.mem_mb["parent"] + done.mem_mb["worker"],
    }


def end_to_end(per_pass: list[dict]) -> dict:
    """The five end-to-end metrics: each the median over the passes."""
    return {name: {"value": statistics.median(figures[name]
                                              for figures in per_pass),
                   "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def host_stamp() -> dict:
    import numpy as np

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale: float = 1.0, min_passes: int = MIN_PASSES,
                  stream_length: int | None = None,
                  out_dir: Path = Path("perfbench") / "out",
                  log=print) -> tuple[dict, list]:
    """One benchmark run.

    Returns the result object (the last output line) and the payload
    digests of the first pass's timed requests in stream order.
    """
    from repro.datagen.presets import build_preset
    from repro.perf.session import DEFAULT_MAX_SESSIONS
    from repro.serve.server import _DESCRIBER_CACHE_SIZE
    import streams

    if trace:
        seconds, min_passes = 0.0, 1
    length = stream_length or streams.PASS_REQUESTS[workload]
    with serving.reference_helper(scale) as helper:
        helper_ready = helper.submit(int)
        t_gen = time.perf_counter()
        city = build_preset(serving.CITY, scale)
        generate_s = time.perf_counter() - t_gen
        helper_ready.result()
        calibration_before = calibrate()
        done, stream, engine = serving.run_passes(
            city, lambda source: streams.make_stream(
                workload, seed, streams.describe_streets(source), length),
            seconds, min_passes)
        calibration_after = calibrate()
        runs = [(stream, one.served.payloads) for one in done]
        attempted = len(done) * len(stream)
        unanswered = sum(len(stream) - len(one.served.payloads)
                         for one in done)
        per_pass = [pass_values(one, len(stream)) for one in done]
        log("perfbench memory " + json.dumps([one.mem_mb for one in done]))
        if trace:
            import layers

            metrics, traced, replayed = layers.traced_run(
                city, stream, done[0], out_dir / f"{workload}-{seed}",
                log=log)
            runs += [(stream, {pos: serving.digest(payload)
                               for pos, payload in traced.payloads.items()}),
                     (stream, {pos: serving.digest(payload)
                               for pos, payload in enumerate(replayed)})]
            attempted += len(stream)
            unanswered += len(stream) - len(traced.payloads)
        else:
            metrics = end_to_end(per_pass)
        t_check = time.perf_counter()
        mismatches = serving.check_payloads(engine, city.photos, runs,
                                            helper)
        check_s = time.perf_counter() - t_check
        failed = unanswered + mismatches
        traffic = streams.describe_traffic(stream)
        traffic.update(
            workload=workload, seed=seed, passes=len(done),
            hit_share=[one.cache["hit_rate"] for one in done],
            local_share=[sum(1 for service in one.served.service_s.values()
                             if service == 0.0) / len(stream)
                         for one in done],
            batch_size_mean=[one.batch_size_mean for one in done],
            session_pool=DEFAULT_MAX_SESSIONS,
            describer_lru=_DESCRIBER_CACHE_SIZE)
        log("perfbench traffic " + json.dumps(traffic, sort_keys=True))
        log("perfbench passes " + json.dumps(per_pass))
        log("perfbench host " + json.dumps(dict(
            host_stamp(), calibration_before_s=calibration_before,
            calibration_after_s=calibration_after), sort_keys=True))
        log("perfbench check " + json.dumps(
            {"attempted": attempted, "unanswered": unanswered,
             "mismatches": mismatches, "check_s": check_s,
             "generate_s": generate_s,
             "setups": [one.setup for one in done]}))
        result = {"correct": failed == 0, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        return result, [done[0].served.payloads[pos]
                        for pos in sorted(done[0].served.payloads)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    # The benchmark measures the documented serving configuration:
    # runtime contracts, program tracing and the slowlog stay off, in the
    # parent and in the spawned worker (which inherits the environment).
    for name in ("REPRO_CHECK", "REPRO_TRACE", "REPRO_SLOWLOG"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(src))
    import streams

    if args.workload not in streams.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(streams.WORKLOADS)}")
    try:
        result, _payloads = run_benchmark(args.workload, args.seed,
                                          args.seconds, bool(args.trace))
    finally:
        # multiprocessing starts a resource tracker process for the
        # shared-memory snapshots; stop it and wait for it to exit, so no
        # process of this run outlives the run.
        resource_tracker._resource_tracker._stop()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
