"""Scale-out query serving: shared-memory snapshots + a process worker pool.

The in-process layers (:mod:`repro.core`, :mod:`repro.perf`) made a single
query fast; this package makes *many concurrent* queries fast by running
Algorithm 1 and ST_Rel+Div in independent worker **processes** that share
one read-only copy of the built indexes:

* :mod:`repro.serve.snapshot` — :class:`~repro.serve.snapshot.IndexSnapshot`
  flattens the engine's object-graph indexes (``POIGridIndex``,
  ``SegmentCellMaps``, the POI/photo/segment attribute tables) into a
  structure-of-arrays layout inside one ``multiprocessing.shared_memory``
  block: contiguous NumPy columns, CSR-style offset tables and interned
  keyword/tag/name string tables;
* :mod:`repro.serve.views` — re-attaches a snapshot read-only and wires
  a :class:`~repro.core.soi.SOIEngine` view over it in O(columns): the
  numeric columns stay zero-copy views into the shared block, POI and
  photo objects decode on first access, and results are bit-identical
  to the engine the snapshot was exported from;
* :mod:`repro.serve.server` — :class:`~repro.serve.server.EngineServer`, a
  persistent pool of N worker processes serving streams of k-SOI and
  describe requests with deterministic result ordering, per-worker
  :class:`~repro.perf.session.QuerySessionPool` reuse, snapshot generation
  counters (so :meth:`~repro.core.soi.SOIEngine.rebuild_indexes`
  invalidates stale workers) and crash-safe shared-memory cleanup;
* :mod:`repro.serve.workload` — seeded mixed k-SOI/describe workload
  generation for the ``repro bench --mode throughput`` suite.

The serving path is an *accelerator* in the same sense as
:mod:`repro.perf`: a snapshot-backed worker must return bit-identical
results to the in-process engine (enforced by the round-trip tests and by
``repro bench --mode throughput --verify``).
"""

from repro.serve.server import DescribeRequest, EngineServer, SOIRequest
from repro.serve.snapshot import IndexSnapshot
from repro.serve.views import attach_engine, attach_photo_set

__all__ = [
    "DescribeRequest",
    "EngineServer",
    "IndexSnapshot",
    "SOIRequest",
    "attach_engine",
    "attach_photo_set",
]
