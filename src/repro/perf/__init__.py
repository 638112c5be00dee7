"""Performance layer: query sessions, parallel helpers and the bench harness.

This package holds the cross-cutting performance machinery added on top of
the paper's algorithms:

* :mod:`repro.perf.session` — keyword-signature-keyed
  :class:`~repro.perf.session.QuerySession` objects (and their LRU
  :class:`~repro.perf.session.QuerySessionPool`) that let parameter sweeps
  reuse per-cell materialisations across queries;
* :mod:`repro.perf.parallel` — deterministic-order parallel execution of
  independent experiment tasks;
* :mod:`repro.perf.bench` — the ``repro bench`` harness that measures the
  Figure 4 / Figure 6 configurations and writes the ``BENCH_*.json``
  trajectory files;
* :mod:`repro.perf.result_cache` — the generation-stamped
  :class:`~repro.perf.result_cache.ResultCache`, an LRU of complete
  payloads (a k-SOI signature's whole ranking, a describe request's
  summary) that answers ``k`` with the payload's first ``k`` entries;
  the serve path keeps one in the parent and one per worker.

Everything here is an *accelerator*: optimised paths must produce results
bit-identical to the plain algorithms (enforced by the equivalence
property tests and the ``REPRO_CHECK=1`` contracts).
"""

from repro.perf.parallel import run_parallel
from repro.perf.result_cache import ResultCache
from repro.perf.session import QuerySession, QuerySessionPool

__all__ = ["QuerySession", "QuerySessionPool", "ResultCache",
           "run_parallel"]
