"""Deterministic-order parallel execution of independent experiment tasks.

The evaluation drivers run many independent units of work — one bench per
city, one variant per describe method, one configuration per sweep point.
:func:`run_parallel` fans such thunks out over a thread pool and returns
their results **in submission order**, so downstream reports stay
deterministic regardless of completion order.

The library has two parallel code paths, and this is the *thread* one:
right for setup and I/O-bound fan-out (building per-city datasets,
loading files, independent experiment drivers over shared engines) where
the engines/caches are shared in-process and the hot kernels release the
GIL inside NumPy.  Pure-Python query phases serialise on the GIL here, so
**timed concurrent query execution** belongs to the other path: the
process-based :class:`repro.serve.server.EngineServer` pool over
shared-memory snapshots, which is what ``perfbench/`` measures.
Sequential latency timings (the ``soi``/``describe`` suites)
still use plain loops — neither executor — so their medians measure the
algorithm, not contention.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def default_jobs() -> int:
    """A sensible worker count: the CPU count, capped at 8."""
    return max(1, min(os.cpu_count() or 1, 8))


def run_parallel(tasks: Sequence[Callable[[], T]],
                 jobs: int | None = None) -> list[T]:
    """Run independent thunks, returning results in submission order.

    ``jobs=None`` uses :func:`default_jobs`; ``jobs=1`` (or a single task)
    degrades to a plain sequential loop with no executor overhead.  The
    first task exception is re-raised after all submitted tasks settle.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs is None:
        jobs = default_jobs()
    if jobs == 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [future.result() for future in futures]
