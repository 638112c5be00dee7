"""A multiprocess query server over shared-memory index snapshots.

:class:`EngineServer` owns one :class:`~repro.serve.snapshot.IndexSnapshot`
(exported from a built :class:`~repro.core.soi.SOIEngine`) and a pool of
``spawn``-ed worker processes.  Each worker attaches the snapshot
read-only, rebuilds an engine view with :func:`repro.serve.views` once,
and then serves a stream of :class:`SOIRequest` / :class:`DescribeRequest`
tasks, reusing its per-process
:class:`~repro.perf.session.QuerySessionPool` and describer cache across
queries.

Protocol properties:

* **Determinism** — every request carries a sequence number;
  :meth:`EngineServer.run` reorders arrivals, so the result list matches
  the request list position-for-position regardless of which worker
  answered first.  Workers execute the same code path as the in-process
  engine (:func:`serve_request`), so payloads are bit-identical to a
  direct call.
* **Staleness** — tasks carry the snapshot ``(name, generation)``.  If the
  source engine's ``index_generation`` has moved on
  (:meth:`~repro.core.soi.SOIEngine.rebuild_indexes`), submission raises
  :class:`~repro.errors.StaleSnapshotError` until :meth:`EngineServer.refresh`
  re-exports; workers lazily re-attach when the name in a task changes.
* **Reuse** — with ``cache=True`` the parent and every worker keep a
  :class:`~repro.perf.result_cache.ResultCache` of complete entries.
  Every k-SOI request is answered from the complete ranking of its
  ``(Ψ, ε, weighted)`` (:meth:`~repro.core.soi_baseline.BaselineSOI.ranking`).
  A worker stores each ranking it computes as its columns
  (:class:`~repro.core.results.SOIRanking`), and each describe payload,
  and ships that entry beside the k-sized payload, as the last field of
  its result tuple; the parent builds the ranking's result list once and
  stores that, so no later page of that signature reaches a worker and
  a parent hit is a list slice.  A request sent before the parent held
  its entry, such as a repeat of an in-flight one, is answered by the
  worker's cache, which builds results for the page's rows only: a
  worker serves its tasks in order and stores each entry before it
  serves the next.
* **Transport** — tasks and results cross two feeder-less pipes
  (:class:`_Channel`): the sending thread pickles and writes each
  message itself.  Tasks the task pipe cannot take yet wait in a
  parent-side backlog, so :meth:`EngineServer.submit` never blocks.
* **Cleanup** — the server is the only owner of the shared-memory block
  (workers unregister their attachment from the ``resource_tracker``), and
  :meth:`EngineServer.close` unlinks it even when workers crashed;
  a dead worker surfaces as :class:`~repro.errors.WorkerCrashError`
  instead of a hang.
* **Observability** — every request is served under a deterministic
  request-scoped trace id (``req-<seq>``, minted from the sequence number
  alone).  With tracing enabled at submit time, the worker ships its span
  buffer for the request back with the result, and the parent
  stitches all shipments into one cross-process Chrome trace
  (:meth:`EngineServer.export_trace`) where each ``serve.request`` parent
  span carries worker id / queue-wait / batch-group annotations.  Workers
  additionally heartbeat into a shared array on every loop turn, which
  lets :meth:`EngineServer.worker_health` distinguish a *stalled* worker
  (alive, heartbeat stale → :class:`~repro.errors.WorkerStallError`) from
  a *crashed* one (dead process → ``WorkerCrashError``); per-request
  latency flows into mergeable quantile sketches reported live by
  :meth:`EngineServer.latency_summary` and ``repro top``.
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import pickle
import queue as queue_mod
from collections import OrderedDict, deque
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_ready
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro import errors
from repro.analysis import contracts
from repro.obs import metrics as obs_metrics
from repro.obs.export import stitch_serve_requests, write_chrome_trace
from repro.obs.tracer import (
    TRACER,
    enable_tracing,
    mint_trace_id,
    monotonic_now,
    perf_now,
    trace_context,
    trace_span,
    tracing_enabled,
)
from repro.core.describe import STRelDivDescriber, build_street_profile
from repro.core.describe.profile import DEFAULT_RHO
from repro.core.interest import validate_query
from repro.core.results import SOIStats
from repro.core.soi import (
    DEFAULT_EPS,
    AccessStrategy,
    SOIEngine,
    parse_strategy,
)
from repro.core.soi_baseline import BaselineSOI
from repro.data.keywords import normalize_keywords
from repro.errors import (
    QueryError,
    ReproError,
    SnapshotError,
    StaleSnapshotError,
    WorkerCrashError,
    WorkerStallError,
)
from repro.perf.result_cache import (
    MISS as _CACHE_MISS,
    ResultCache,
    counter_stats,
    request_cache_key,
)
from repro.serve.snapshot import IndexSnapshot
from repro.serve.views import attach_engine, attach_photo_set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import SOIRanking
    from repro.data.photo import PhotoSet

_POLL_SECONDS = 0.1
_DESCRIBER_CACHE_SIZE = 32

_HEARTBEAT_SECONDS = 0.25
"""Worker loop tick: idle workers wake this often to refresh their
heartbeat, so a fresh heartbeat means the loop is actually turning."""

DEFAULT_STALL_AFTER_S = 5.0
"""Default heartbeat age past which a live worker counts as *stalled*.
Must exceed the longest expected single service time — a worker cannot
beat in the middle of one query."""

_TRACE_LOG_CAPACITY = 65536

# Worker states published through the shared state array.
_STATE_STARTING, _STATE_IDLE, _STATE_BUSY = 0, 1, 2
_STATE_NAMES = {_STATE_STARTING: "starting", _STATE_IDLE: "idle",
                _STATE_BUSY: "busy"}

_FRAME_BYTES = 4
"""Length header ``Connection.send_bytes`` writes before each message."""


class _Channel:
    """One direction of message passing between processes, without a
    feeder thread.

    A ``Pipe(duplex=False)`` with a read lock and a write lock.
    :meth:`put` pickles in the calling thread, outside the lock, and
    writes under the write lock, so a message is in the pipe when
    ``put`` returns; ``multiprocessing.Queue.put`` only buffers it for a
    feeder thread that must first win the GIL from the thread that
    called ``put``.  A write blocks while the pipe is full: the parent
    bounds what it writes (see :meth:`EngineServer._flush`), and a
    worker blocked on its results is back-pressure.
    """

    def __init__(self, ctx) -> None:
        self.reader, self._writer = ctx.Pipe(duplex=False)
        self._rlock = ctx.Lock()
        self._wlock = ctx.Lock()

    def put(self, obj) -> None:
        self.put_bytes(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))

    def put_bytes(self, data: bytes) -> None:
        with self._wlock:
            self._writer.send_bytes(data)

    def get(self, timeout: float):
        """The next message, or :class:`queue.Empty` after ``timeout`` s.

        Locks, polls and receives as ``multiprocessing.Queue.get`` does,
        so two readers never both take one message and a blocked reader
        still returns on time; unpickles after releasing the lock.
        """
        deadline = monotonic_now() + timeout
        if not self._rlock.acquire(timeout=timeout):
            raise queue_mod.Empty
        try:
            if not self.reader.poll(max(0.0, deadline - monotonic_now())):
                raise queue_mod.Empty
            data = self.reader.recv_bytes()
        finally:
            self._rlock.release()
        return pickle.loads(data)

    def capacity(self) -> int:
        """Bytes the pipe is known to hold: Linux reports its size;
        elsewhere one page is assumed."""
        try:
            import fcntl

            return fcntl.fcntl(self._writer.fileno(), fcntl.F_GETPIPE_SZ)
        except (ImportError, AttributeError, OSError):
            return mmap.PAGESIZE

    def close(self) -> None:
        self.reader.close()
        self._writer.close()


@dataclass(frozen=True, slots=True)
class SOIRequest:
    """One k-SOI query (Problem 1) as a picklable task."""

    keywords: tuple[str, ...]
    k: int
    eps: float = DEFAULT_EPS
    strategy: str = AccessStrategy.ALTERNATE.value
    weighted: bool = False


@dataclass(frozen=True, slots=True)
class DescribeRequest:
    """One describe query (Problem 2): summarise a street with ``k`` photos."""

    street_id: int
    k: int
    eps: float = DEFAULT_EPS
    lam: float = 0.5
    w: float = 0.5
    rho: float = DEFAULT_RHO


Request = SOIRequest | DescribeRequest


def serve_request(
    engine: SOIEngine,
    photos: "PhotoSet | None",
    request: Request,
    describers: "OrderedDict | None" = None,
    session=None,
):
    """Serve one request against an engine — the single serving code path.

    Workers call this over their snapshot-attached views; the bit-identity
    tests and perfbench's reference digests call it over the original
    in-process engine.  Because both sides run this exact function,
    agreement is structural rather than coincidental.

    k-SOI requests return the first ``k`` entries of
    :meth:`~repro.core.soi_baseline.BaselineSOI.ranking`, the complete
    ranking of the request's ``(Ψ, ε, weighted)``: one NumPy reduction
    over the slot masses of the pass the session shares with Algorithm 1.
    It equals :meth:`~repro.core.soi.SOIEngine.top_k` bit for bit at every
    ``k`` and for every access strategy, so the strategy is validated but
    does not change the payload.  Describe requests return the selected
    photo ids in selection order.  ``describers`` (an
    :class:`~collections.OrderedDict`) enables LRU reuse of street
    profiles across describe queries.  ``session`` is an already-resolved
    :class:`~repro.perf.session.QuerySession` for the request's keyword
    signature (micro-batched serving resolves it once per group); it must
    belong to ``engine``.  Cached session values are bitwise what a fresh
    pass computes, so passing one cannot change a payload.
    """
    return _complete_answer(engine, photos, request, describers,
                            session)[: request.k]


def _complete_answer(
    engine: SOIEngine,
    photos: "PhotoSet | None",
    request: Request,
    describers: "OrderedDict | None" = None,
    session=None,
) -> "SOIRanking | list":
    """The answer :func:`serve_request` slices to ``k``: for a k-SOI
    request the complete ranking of its ``(Ψ, ε, weighted)`` as columns,
    for a describe request its payload.  Either slices to a fresh list.
    This is what a result cache stores under the request's key.  Each
    ranking computed counts one ``soi.queries`` with the pass's
    counters."""
    with trace_span("serve.request", kind=type(request).__name__):
        if isinstance(request, SOIRequest):
            # Validated only: every strategy's answer is this ranking.
            parse_strategy(request.strategy)
            validate_query(request.keywords, request.k, request.eps)
            stats = SOIStats()
            ranking = BaselineSOI(engine).ranking(
                request.keywords, request.eps, weighted=request.weighted,
                session=session, stats=stats)
            obs_metrics.record_soi_query(stats)
            return ranking
        if isinstance(request, DescribeRequest):
            if photos is None:
                raise QueryError(
                    "describe request served without a photo table "
                    "(snapshot was exported with photos=None)")
            key = (request.street_id, request.eps, request.rho)
            describer = (describers.get(key) if describers is not None
                         else None)
            if describer is None:
                profile = build_street_profile(
                    engine.network, request.street_id, photos,
                    request.eps, rho=request.rho)
                describer = STRelDivDescriber(profile)
                if describers is not None:
                    describers[key] = describer
                    while len(describers) > _DESCRIBER_CACHE_SIZE:
                        describers.popitem(last=False)
            elif describers is not None:
                describers.move_to_end(key)
            positions = describer.select(request.k, request.lam, request.w)
            ids = describer.profile.photos.ids
            return [int(ids[pos]) for pos in positions]
        raise QueryError(
            f"unsupported request type {type(request).__name__}")


def serve_request_cached(
    engine: SOIEngine,
    photos: "PhotoSet | None",
    request: Request,
    cache: "ResultCache",
    describers: "OrderedDict | None" = None,
    session=None,
):
    """:func:`serve_request` through a :class:`ResultCache`.

    The cache is stamped against ``engine.index_generation`` on every call
    (a bumped generation empties it wholesale), then consulted under the
    request's canonical key.  A miss stores the ranking of a k-SOI
    request, which answers every ``k`` of the signature by slicing
    (prefix stability makes the slice bit-identical to a direct call;
    under ``REPRO_CHECK=1`` each sliced hit is re-derived and compared),
    or the payload of a describe request.
    """
    return _serve_cached(engine, photos, request, cache, describers,
                         session)[0]


def _serve_cached(engine, photos, request, cache, describers=None,
                  session=None):
    """:func:`serve_request_cached`'s payload, and the entry this call
    stored in the cache (see :func:`_complete_answer`), or ``None`` on a
    hit."""
    cache.ensure_generation(engine.index_generation)
    key = request_cache_key(request)
    recompute = None
    if contracts.ENABLED:
        def recompute():
            return serve_request(engine, photos, request, describers,
                                 session=session)
    hit = cache.lookup(key, request.k, recompute=recompute)
    if hit is not _CACHE_MISS:
        return hit, None
    entry = _complete_answer(engine, photos, request, describers, session)
    cache.store(key, entry)
    # A fresh slice: the stored list must never be aliased by a caller
    # that might mutate its payload in place.
    return entry[: request.k], entry


class _WorkerView:
    """One worker's attached snapshot plus the views rebuilt over it."""

    __slots__ = ("name", "snapshot", "engine", "photos", "describers")

    def __init__(self, name: str) -> None:
        self.name = name
        # Workers are spawn-children: they inherit the server's
        # resource_tracker, so the default tracking is correct (an
        # unregister here would strip the server's own registration).
        self.snapshot = IndexSnapshot.attach(name)
        self.engine = attach_engine(self.snapshot)
        self.photos = attach_photo_set(self.snapshot)
        self.describers: OrderedDict = OrderedDict()

    def close(self) -> None:
        self.engine = None
        self.photos = None
        self.describers = OrderedDict()
        self.snapshot.close()


def _group_key(request) -> tuple:
    """Micro-batch ordering key: requests with equal keys share session
    state, so sorting a drained batch runs each signature's requests
    back-to-back.  The key is a total order over well-formed requests
    (kind first, then the signature parameters)."""
    if isinstance(request, SOIRequest):
        return (0, tuple(sorted(normalize_keywords(request.keywords))),
                request.eps, request.weighted)
    if isinstance(request, DescribeRequest):
        return (1, request.street_id, request.eps, request.rho)
    return (2, type(request).__name__)


def _request_kind(request) -> str:
    """Short request-kind label used in sketch names and trace args."""
    if isinstance(request, SOIRequest):
        return "soi"
    if isinstance(request, DescribeRequest):
        return "describe"
    return type(request).__name__.lower()


def _worker_main(worker_id: int, tasks, results, micro_batch: int = 1,
                 heartbeats=None, states=None, cache: bool = False) -> None:
    """Worker loop: attach on demand, serve until the ``None`` sentinel.

    With ``micro_batch > 1`` each loop turn drains up to that many queued
    tasks and stable-sorts them by :func:`_group_key`, so same-signature
    k-SOI requests execute consecutively against one resolved session
    (and describe requests for one street reuse the cached describer).
    Results still carry their original sequence numbers — the parent's
    reordering is untouched, and payloads are bit-identical to unbatched
    serving because session caches only memoise exact values.

    With ``cache=True`` the worker keeps a per-process
    :class:`~repro.perf.result_cache.ResultCache` of complete entries
    (emptied whenever the snapshot generation moves): every k-SOI
    ranking it computes answers every later page of that signature in
    the same batch, or in a later one, by slicing, and a describe repeat
    is answered without recomputing.  Prefix stability keeps this
    bit-identical to uncached serving.

    ``tasks`` and ``results`` are the parent's two :class:`_Channel`
    objects.  Results are written synchronously: a worker whose parent
    stops collecting blocks on the full result pipe and stops beating,
    so :meth:`EngineServer.worker_health` reports it stalled — that is
    back-pressure, not a fault.

    ``heartbeats``/``states`` are the parent's shared arrays: the loop
    stamps ``monotonic_now()`` (a system-wide clock, unlike
    ``perf_counter``) on every turn — including empty-pipe wakeups, which
    is why the blocking ``get`` carries a timeout — so the parent can
    tell a worker that stopped making progress from one that is merely
    idle.  Every request is served under a deterministic
    :class:`~repro.obs.tracer.trace_context`; when the task asks for
    tracing, the spans recorded for the request are shipped back (as
    dicts) in the result tuple for parent-side stitching.

    The result tuple is ``(seq, worker_id, status, body, service_s,
    metrics_dump, spans, entry)``: ``body`` is the k-sized payload, and
    ``entry`` is what the worker's cache stored for the request (the
    complete ranking of a k-SOI, the payload of a describe; ``None`` on
    a cache hit or with the cache off), for the parent cache to store.
    A k-SOI ``body`` holds the ``k`` result objects of its page; its
    ``entry`` crosses the pipe as the ranking's columns, not as objects.
    ``metrics_dump`` is the worker's whole metrics registry, sent with
    the last result of each drained batch only, after every record of
    that batch (``None`` with the others): the parent keeps only the
    latest dump per worker.

    Must stay importable at module level — the pool uses the ``spawn``
    start method, which re-imports this module in the child.
    """
    view: _WorkerView | None = None
    result_cache = ResultCache() if cache else None
    stop = False

    def beat(state: int) -> None:
        if heartbeats is not None:
            heartbeats[worker_id] = monotonic_now()
        if states is not None:
            states[worker_id] = state

    beat(_STATE_IDLE)
    try:
        while not stop:
            try:
                task = tasks.get(timeout=_HEARTBEAT_SECONDS)
            except queue_mod.Empty:
                beat(_STATE_IDLE)
                continue
            if task is None:
                break
            beat(_STATE_BUSY)
            batch = [task]
            while len(batch) < micro_batch:
                try:
                    extra = tasks.get(timeout=0.0)
                except queue_mod.Empty:
                    break
                if extra is None:
                    # Finish the drained work, then shut down.
                    stop = True
                    break
                batch.append(extra)
            if len(batch) > 1:
                batch.sort(key=lambda item: _group_key(item[3]))
            if micro_batch > 1:
                obs_metrics.record_serve_batch(
                    len(batch),
                    len({_group_key(item[3]) for item in batch}))
            # The resolved session of the current group; keys only compare
            # within one attached view (re-attach resets the group).
            current_key: tuple | None = None
            session = None
            last_seq = batch[-1][0]
            for seq, shm_name, generation, request, trace in batch:
                entry = None
                trace_id = mint_trace_id(seq)
                mark = TRACER.mark() if trace else 0
                previous_enabled = tracing_enabled()
                started = perf_now()
                if trace:
                    enable_tracing(True)
                try:
                    with trace_context(trace_id):
                        try:
                            if view is not None and view.name != shm_name:
                                view.close()
                                view = None
                                current_key, session = None, None
                            if view is None:
                                view = _WorkerView(shm_name)
                            if view.snapshot.generation != generation:
                                raise StaleSnapshotError(
                                    f"snapshot {shm_name!r} holds generation "
                                    f"{view.snapshot.generation}, task "
                                    f"expects {generation}")
                            key = _group_key(request)
                            if key != current_key:
                                current_key = key
                                session = None
                                if isinstance(request, SOIRequest):
                                    signature = normalize_keywords(
                                        request.keywords)
                                    if signature:
                                        session = view.engine.sessions.get(
                                            signature)
                            if result_cache is None:
                                payload = serve_request(
                                    view.engine, view.photos, request,
                                    view.describers, session=session)
                            else:
                                payload, entry = _serve_cached(
                                    view.engine, view.photos, request,
                                    result_cache, view.describers,
                                    session=session)
                            status, body = "ok", payload
                        except ReproError as exc:
                            status, body = ("error",
                                            (type(exc).__name__, str(exc)))
                        except Exception as exc:  # repro-lint: disable=REP-H302 (worker must not die; the error is reported to the parent verbatim)
                            status, body = ("error",
                                            (type(exc).__name__, str(exc)))
                finally:
                    if trace:
                        enable_tracing(previous_enabled)
                service_s = perf_now() - started
                span_dicts = None
                if trace:
                    span_dicts = [span.to_dict()
                                  for span in TRACER.spans_since(mark)]
                obs_metrics.record_serve_request(
                    _request_kind(request), service_s, trace_id=trace_id,
                    error=(status == "error"))
                # A batch's last response carries the worker's full
                # metrics snapshot; the parent keeps only the latest dump
                # per worker and merges them on demand, so worker metrics
                # survive worker restarts and aggregate centrally without
                # a side channel.
                dump = (obs_metrics.REGISTRY.to_dict()
                        if seq == last_seq else None)
                results.put((seq, worker_id, status, body, service_s, dump,
                             span_dicts, entry))
                beat(_STATE_BUSY)
            beat(_STATE_IDLE)
    finally:
        if view is not None:
            view.close()


_SKETCH_PREFIX = "serve.latency."


def _sketch_stats(registry: "obs_metrics.MetricsRegistry") -> dict:
    """Per-kind quantile stats from a registry's serve-latency sketches."""
    stats: dict[str, dict] = {}
    for name in registry.sketch_names(prefix=_SKETCH_PREFIX):
        sketch = registry.sketch(name)
        kind = name[len(_SKETCH_PREFIX):]
        if kind.endswith("_s"):
            kind = kind[:-2]
        stats[kind] = {
            "count": sketch.count,
            "mean_s": sketch.mean,
            "p50_s": sketch.quantile(0.5),
            "p90_s": sketch.quantile(0.9),
            "p99_s": sketch.quantile(0.99),
            "max_s": sketch.quantile(1.0),
            "slowest": sketch.exemplar(1.0),
        }
    return stats


def _rehydrate_error(type_name: str, message: str) -> ReproError:
    """Map a worker-side exception back onto the library hierarchy."""
    exc_type = getattr(errors, type_name, None)
    if isinstance(exc_type, type) and issubclass(exc_type, ReproError):
        return exc_type(message)
    return ReproError(f"worker raised {type_name}: {message}")


class EngineServer:
    """A pool of snapshot-attached worker processes serving query streams.

    Usually constructed with :meth:`for_engine`, which exports the
    snapshot and remembers the source engine for staleness checks and
    :meth:`refresh`.  The server is a context manager; leaving the block
    shuts the workers down and unlinks the shared-memory block.
    """

    def __init__(
        self,
        snapshot: IndexSnapshot,
        workers: int = 2,
        source: SOIEngine | None = None,
        source_photos: "PhotoSet | None" = None,
        micro_batch: int = 1,
        cache: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if micro_batch < 1:
            raise ValueError(
                f"micro_batch must be at least 1, got {micro_batch}")
        self._micro_batch = micro_batch
        # Parent-side metrics (the result cache): merged into metrics()
        # alongside the worker dumps.
        self._local_metrics = obs_metrics.MetricsRegistry()
        self._cache_enabled = bool(cache)
        self._result_cache = (
            ResultCache(generation=snapshot.generation,
                        registry=self._local_metrics)
            if cache else None)
        # The cache key of each worker-bound request whose answer the
        # parent cache stores, and locally-completed results awaiting
        # collection.
        self._cache_keys: dict[int, tuple] = {}
        self._ready: OrderedDict[int, tuple] = OrderedDict()
        self._snapshot = snapshot
        self._source = source
        self._source_photos = source_photos
        self._warm_eps = tuple(snapshot.meta.get("warm_eps", ()))
        self._ctx = mp.get_context("spawn")
        self._tasks = _Channel(self._ctx)
        self._results = _Channel(self._ctx)
        # Pickled tasks not yet written, and the pipe bytes of each task
        # written and not yet answered (see _flush).
        self._backlog: deque[tuple[int, bytes]] = deque()
        self._written: dict[int, int] = {}
        self._written_bytes = 0
        self._write_budget = self._tasks.capacity() // 2
        self._next_seq = 0
        self._inflight: set[int] = set()
        # Latest metrics dump and last completed request seq per worker id
        # (updated on every arrival; read by metrics() and crash reports).
        self._worker_metrics: dict[int, dict] = {}
        self._last_done: dict[int, int] = {}
        # Trace bookkeeping: per-seq submit info for in-flight traced
        # requests, and the completed-request trace log consumed by
        # export_trace() (bounded; oldest requests fall off first).
        self._submit_info: dict[int, dict] = {}
        self._trace_log: deque[dict] = deque(maxlen=_TRACE_LOG_CAPACITY)
        # Completion stamps for the rolling-QPS gauge in telemetry().
        self._completions: deque[float] = deque(maxlen=4096)
        self._completed_total = 0
        # Shared heartbeat/state arrays written by the worker loops; seeded
        # with the spawn time so a worker that never starts reads as stale
        # rather than as "fresh forever".
        self._heartbeats = self._ctx.Array("d", workers)
        self._states = self._ctx.Array("i", workers)
        spawn_time = monotonic_now()
        for wid in range(workers):
            self._heartbeats[wid] = spawn_time
            self._states[wid] = _STATE_STARTING
        self._closed = False
        self._stale_snapshots: list[IndexSnapshot] = []
        self._workers = [
            self._ctx.Process(
                target=_worker_main,
                args=(wid, self._tasks, self._results, micro_batch,
                      self._heartbeats, self._states, self._cache_enabled),
                name=f"repro-serve-{wid}", daemon=True)
            for wid in range(workers)
        ]
        for process in self._workers:
            process.start()

    @classmethod
    def for_engine(
        cls,
        engine: SOIEngine,
        photos: "PhotoSet | None" = None,
        workers: int = 2,
        warm_eps: Sequence[float] = (DEFAULT_EPS,),
        micro_batch: int = 1,
        cache: bool = False,
    ) -> "EngineServer":
        """Export a snapshot of ``engine`` and spin up ``workers`` processes.

        ``micro_batch`` is how many queued requests each worker drains per
        loop turn (cross-request micro-batching; 1 disables it).
        ``cache`` enables the two-level result cache: one in the parent,
        looked up before a request crosses the task pipe, and one per
        worker.  Every k-SOI request a worker computes ships its complete
        ranking, which the parent stores, so every later page of that
        signature is answered without a worker round trip.  Payloads
        stay bit-identical to uncached serving.
        """
        snapshot = IndexSnapshot.export(engine, photos, warm_eps=warm_eps)
        try:
            return cls(snapshot, workers=workers, source=engine,
                       source_photos=photos, micro_batch=micro_batch,
                       cache=cache)
        except BaseException:
            # The server never took ownership: unlink the block here.
            snapshot.close()
            snapshot.unlink()
            raise

    # -- introspection ----------------------------------------------------

    @property
    def snapshot(self) -> IndexSnapshot:
        return self._snapshot

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    @property
    def micro_batch(self) -> int:
        """Requests each worker may drain per loop turn (1 = no batching)."""
        return self._micro_batch

    @property
    def inflight(self) -> int:
        """Tasks submitted but not yet collected."""
        return len(self._inflight)

    def metrics(self) -> "obs_metrics.MetricsRegistry":
        """Aggregated worker metrics as a fresh registry.

        The last response of each batch a worker drains carries its full
        :meth:`~repro.obs.metrics.MetricsRegistry.to_dict` snapshot; this
        merges the latest snapshot of every worker, so once every request
        is collected it counts all of them.  The merge is commutative
        (counters add, gauges keep the max, histogram buckets add), so the
        aggregate is deterministic regardless of response arrival order.
        """
        merged = obs_metrics.MetricsRegistry()
        for wid in sorted(self._worker_metrics):
            merged.merge(self._worker_metrics[wid])
        merged.merge(self._local_metrics.to_dict())
        return merged

    def metrics_dict(self) -> dict:
        """JSON-ready aggregated worker metrics (see :meth:`metrics`)."""
        return self.metrics().to_dict()

    @property
    def cache_enabled(self) -> bool:
        """Whether the two-level result cache is on for this server."""
        return self._cache_enabled

    def cache_stats(self) -> dict:
        """Aggregated result-cache counters over both levels.

        Counters (parent cache + every worker cache) add up; the byte and
        entry gauges merge as the largest single level, which is the
        bound that matters for memory.  ``hit_rate`` is hits over
        lookups.  ``coalesced_waiters`` and ``kmax_elevations`` read 0:
        the serve benchmark still reads them, though request coalescing
        and micro-batch ``k_max`` grouping are gone.
        """
        registry = self.metrics()
        out = counter_stats(registry)
        out["coalesced_waiters"] = out["kmax_elevations"] = 0
        for gauge in ("bytes", "entries"):
            out[gauge] = registry.gauge("serve.cache." + gauge) or 0.0
        return out

    # -- live telemetry ----------------------------------------------------

    def worker_health(self,
                      stall_after_s: float = DEFAULT_STALL_AFTER_S) -> list[dict]:
        """Per-worker liveness report from the shared heartbeat arrays.

        Each entry carries the worker id, pid, published state
        (``starting``/``idle``/``busy``), heartbeat age in seconds, last
        completed request, and a ``status`` verdict: ``crashed`` (the
        process is dead), ``stalled`` (alive but the heartbeat is older
        than ``stall_after_s`` — a hung worker, e.g. stopped or
        deadlocked), or ``ok``.  A worker busy on one very long query
        also reads as stalled: the loop cannot beat mid-query, so pick a
        threshold above the longest expected service time.
        """
        now = monotonic_now()
        report = []
        for wid, process in enumerate(self._workers):
            alive = process.is_alive()
            age = max(0.0, now - self._heartbeats[wid])
            if not alive:
                status = "crashed"
            elif age > stall_after_s:
                status = "stalled"
            else:
                status = "ok"
            report.append({
                "worker": wid,
                "pid": process.pid,
                "alive": alive,
                "state": _STATE_NAMES.get(self._states[wid], "unknown"),
                "heartbeat_age_s": age,
                "last_seq": self._last_done.get(wid),
                "status": status,
            })
        return report

    def check_worker_health(
            self, stall_after_s: float = DEFAULT_STALL_AFTER_S) -> list[dict]:
        """:meth:`worker_health`, raising on anything other than ``ok``.

        Crashed workers raise :class:`~repro.errors.WorkerCrashError`;
        stalled (alive but silent) workers raise
        :class:`~repro.errors.WorkerStallError` — the distinction PR 3's
        death check could not make.
        """
        report = self.worker_health(stall_after_s=stall_after_s)
        crashed = [r for r in report if r["status"] == "crashed"]
        if crashed:
            raise WorkerCrashError(
                "worker(s) dead: " + ", ".join(
                    f"worker {r['worker']} (pid {r['pid']})" for r in crashed))
        stalled = [r for r in report if r["status"] == "stalled"]
        if stalled:
            raise WorkerStallError(
                "worker(s) alive but not heartbeating: " + ", ".join(
                    f"worker {r['worker']} (pid {r['pid']}, "
                    f"heartbeat {r['heartbeat_age_s']:.1f}s old, "
                    f"state {r['state']})" for r in stalled))
        return report

    def latency_summary(self) -> dict:
        """Live latency quantiles from the merged worker sketches.

        ``{"kinds": {...}, "workers": {...}}`` — per request kind over
        all workers, and per worker over all kinds it served.  Values
        come from the mergeable :class:`~repro.obs.metrics.QuantileSketch`
        dumps shipped with each batch's last response, so no per-request
        samples are stored anywhere; ``slowest`` is the exemplar trace id
        of the slowest request, joinable against the slowlog and the
        stitched Chrome trace.
        """
        summary = {"kinds": _sketch_stats(self.metrics()), "workers": {}}
        for wid in sorted(self._worker_metrics):
            registry = obs_metrics.MetricsRegistry()
            registry.merge(self._worker_metrics[wid])
            summary["workers"][str(wid)] = _sketch_stats(registry)
        return summary

    def telemetry(self, qps_window_s: float = 5.0,
                  stall_after_s: float = DEFAULT_STALL_AFTER_S) -> dict:
        """One ``repro top`` frame: load, queueing, memory and health.

        ``qps`` is completions over the trailing ``qps_window_s`` seconds;
        ``queue_depth`` counts the tasks bound for a worker and not yet
        answered: the parent's backlog plus the tasks written to the
        pipe; ``shm_bytes`` counts every mapped snapshot block including
        stale generations not yet unlinked.
        """
        now = monotonic_now()
        recent = sum(1 for stamp in self._completions
                     if now - stamp <= qps_window_s)
        shm_bytes = (self._snapshot.nbytes
                     + sum(s.nbytes for s in self._stale_snapshots))
        return {
            "qps": recent / qps_window_s,
            "inflight": len(self._inflight),
            "queue_depth": len(self._backlog) + len(self._written),
            "completed_total": self._completed_total,
            "shm_bytes": shm_bytes,
            "snapshot_generation": self._snapshot.generation,
            "micro_batch": self._micro_batch,
            "cache": self.cache_stats() if self._cache_enabled else None,
            "workers": self.worker_health(stall_after_s=stall_after_s),
            "latency": self.latency_summary(),
        }

    # -- cross-process tracing ---------------------------------------------

    def trace_requests(self) -> list[dict]:
        """The completed-request trace log (stitching input), oldest first."""
        return list(self._trace_log)

    def clear_trace_log(self) -> None:
        self._trace_log.clear()

    def export_trace(self, path) -> "Path":
        """Write the stitched cross-process Chrome trace to ``path``.

        Every traced request completed so far becomes one ``serve.request``
        parent span (worker id / queue-wait / batch-group in ``args``)
        with the worker's shipped spans rebased and nested beneath it —
        see :func:`repro.obs.export.stitch_serve_requests` for the clock
        model.  Load the file at ``chrome://tracing`` or perfetto.
        """
        return write_chrome_trace(
            path, stitch_serve_requests(list(self._trace_log)))

    # -- submission / collection ------------------------------------------

    def submit(self, request: Request) -> int:
        """Enqueue one request; returns its sequence number.

        Never blocks: a task the task pipe cannot take yet waits in the
        parent's backlog (see :meth:`_flush`).

        When tracing is enabled in the parent at submit time, the task
        asks its worker to trace the request and ship the spans back; the
        submit timestamp, request kind and batch-group key are remembered
        so the arrival can be stitched into the cross-process trace.

        With the result cache on, a repeat of an already-answered request,
        or any page of a k-SOI signature a worker has answered before,
        completes locally from the parent's cache; an invalid request
        completes locally with its :class:`~repro.errors.QueryError`.
        Traced requests always execute for real — the trace is the point.
        """
        if self._closed:
            raise ReproError("EngineServer is closed")
        if (self._source is not None
                and self._source.index_generation != self._snapshot.generation):
            raise StaleSnapshotError(
                f"snapshot holds generation {self._snapshot.generation} but "
                f"the source engine is at generation "
                f"{self._source.index_generation}; call refresh()")
        seq = self._next_seq
        self._next_seq += 1
        trace = tracing_enabled()
        if trace:
            self._submit_info[seq] = {
                "seq": seq,
                "kind": _request_kind(request),
                "batch_group": repr(_group_key(request)),
                "submit_ns": int(perf_now() * 1e9),
            }
        if self._result_cache is not None and not trace:
            try:
                key = request_cache_key(request)
            except QueryError as exc:
                self._ready[seq] = ("error", (type(exc).__name__, str(exc)),
                                    0.0)
                self._inflight.add(seq)
                return seq
            hit = self._result_cache.lookup(key, request.k)
            if hit is not _CACHE_MISS:
                self._ready[seq] = ("ok", hit, 0.0)
                self._inflight.add(seq)
                return seq
            self._cache_keys[seq] = key
        self._backlog.append((seq, pickle.dumps(
            (seq, self._snapshot.name, self._snapshot.generation, request,
             trace), pickle.HIGHEST_PROTOCOL)))
        self._inflight.add(seq)
        self._flush()
        return seq

    def next_result(self, timeout: float | None = None):
        """``(seq, payload, service_seconds)`` of the next arrival.

        Arrival order is whichever worker finishes first; callers needing
        request order should use :meth:`run`.  Raises
        :class:`~repro.errors.WorkerCrashError` when a worker dies with
        tasks in flight, and re-raises worker-side exceptions.
        """
        if not self._inflight:
            raise ReproError("no tasks in flight")
        deadline = (None if timeout is None
                    else monotonic_now() + timeout)
        while True:
            if self._ready:
                # Locally-completed results (parent cache hits, invalid
                # requests, arrivals drained after a worker died) go first.
                seq, entry = self._ready.popitem(last=False)
                return self._hand_back(seq, *entry)
            try:
                result = self._results.get(timeout=_POLL_SECONDS)
            except queue_mod.Empty:
                self._check_workers_alive()
                if deadline is not None and monotonic_now() > deadline:
                    raise TimeoutError(
                        f"no result within {timeout} s "
                        f"({len(self._inflight)} in flight)") from None
                continue
            return self._hand_back(*self._accept(result))

    def run(
        self,
        requests: Iterable[Request],
        window: int | None = None,
        timeout: float | None = None,
    ) -> list:
        """Serve ``requests``, returning payloads in request order.

        ``window`` bounds how many tasks are in flight at once (default:
        four per worker), which keeps memory flat on long streams while
        still saturating the pool.
        """
        payloads, _service = self.run_with_stats(
            requests, window=window, timeout=timeout)
        return payloads

    def run_with_stats(
        self,
        requests: Iterable[Request],
        window: int | None = None,
        timeout: float | None = None,
    ) -> tuple[list, list[float]]:
        """Like :meth:`run`, also returning per-request service seconds.

        Service time is measured inside the worker (attach-to-answer), so
        it excludes queueing delay.
        """
        request_list = list(requests)
        if window is None:
            window = 4 * len(self._workers)
        if window < 1:
            raise ValueError(f"window must be at least 1, got {window}")
        collected: dict[int, tuple] = {}
        seqs: list[int] = []
        submitted = 0
        while submitted < len(request_list) or self._inflight:
            while (submitted < len(request_list)
                   and len(self._inflight) < window):
                seqs.append(self.submit(request_list[submitted]))
                submitted += 1
            if self._inflight:
                seq, payload, service_s = self.next_result(timeout=timeout)
                collected[seq] = (payload, service_s)
        return ([collected[seq][0] for seq in seqs],
                [collected[seq][1] for seq in seqs])

    # -- lifecycle --------------------------------------------------------

    def refresh(self) -> None:
        """Re-export the snapshot from the source engine.

        Needed after :meth:`~repro.core.soi.SOIEngine.rebuild_indexes`.
        The old block is kept until :meth:`close` — workers may still have
        it mapped — but all new tasks carry the new name, so workers
        re-attach on their next task.  Refusing to refresh with tasks in
        flight keeps the old results unambiguous.
        """
        if self._source is None:
            raise ReproError(
                "this server was not constructed from a source engine; "
                "build a new one with EngineServer.for_engine")
        if self._inflight:
            raise ReproError(
                f"refresh with {len(self._inflight)} tasks in flight; "
                "collect them first")
        fresh = IndexSnapshot.export(
            self._source, self._source_photos, warm_eps=self._warm_eps)
        self._stale_snapshots.append(self._snapshot)
        self._snapshot = fresh
        if self._result_cache is not None:
            # Wholesale invalidation on generation change; workers drop
            # their own caches when they re-attach the new snapshot.
            self._result_cache.invalidate(fresh.generation)

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers and unlink every shared-memory block.

        Safe to call repeatedly and after worker crashes: backlogged
        tasks are dropped, live workers get a sentinel and up to
        ``timeout`` seconds to exit while unread results are drained and
        discarded (a worker blocked on a full result pipe could not
        reach its sentinel otherwise); stragglers (and corpses) are
        terminated; the ``finally`` block unlinks the snapshot(s) no
        matter what happened before.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._backlog.clear()
            live = [process for process in self._workers
                    if process.is_alive()]
            for _process in live:
                self._tasks.put(None)
            deadline = monotonic_now() + timeout
            while live and monotonic_now() < deadline:
                wait_ready([self._results.reader,
                            *(process.sentinel for process in live)],
                           deadline - monotonic_now())
                self._arrived()  # discarded: nobody will collect them
                live = [process for process in live if process.is_alive()]
            for process in self._workers:
                if process.is_alive():  # pragma: no cover - defensive
                    process.terminate()
                    process.join(timeout=1.0)
        finally:
            self._tasks.close()
            self._results.close()
            for snapshot in (*self._stale_snapshots, self._snapshot):
                snapshot.close()
                snapshot.unlink()
            self._stale_snapshots = []

    def __enter__(self) -> "EngineServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals --------------------------------------------------------

    def _flush(self) -> None:
        """Write backlogged tasks to the task pipe, oldest first, while
        the pipe bytes of the tasks written and not yet answered stay
        within half the pipe's capacity; with none outstanding, the next
        task is written whatever its size.

        The pipe therefore never fills, so neither :meth:`submit` nor
        :meth:`close`'s sentinels block on it, even while a worker waits
        on a full result pipe for the parent to collect.  Half, because
        Linux fills a pipe page by page and a write that does not fit
        the last page's rest starts a new page: a full pipe can hold
        less than its capacity in bytes."""
        while self._backlog:
            seq, data = self._backlog[0]
            size = len(data) + _FRAME_BYTES
            if (self._written
                    and self._written_bytes + size > self._write_budget):
                return
            self._backlog.popleft()
            self._tasks.put_bytes(data)
            self._written[seq] = size
            self._written_bytes += size

    def _accept(self, result: tuple) -> tuple:
        """Bookkeeping for one worker arrival; returns ``(seq, status,
        body, service_s)`` for :meth:`_hand_back`.

        Frees the task's pipe bytes and flushes the backlog, keeps the
        worker's latest metrics dump and progress, logs the
        stitched-trace entry of a traced request and stores the entry the
        worker's cache stored in the parent's cache, as a list.  Queue
        wait is turnaround minus worker-measured service time (both
        origin-free durations), so no cross-process clock comparison is
        needed."""
        (seq, wid, status, body, service_s, metrics_dump, spans,
         entry) = result
        self._written_bytes -= self._written.pop(seq)
        self._flush()
        self._last_done[wid] = seq
        if metrics_dump:
            self._worker_metrics[wid] = metrics_dump
        info = self._submit_info.pop(seq, None)
        if info is not None:
            arrival_ns = int(perf_now() * 1e9)
            turnaround_s = (arrival_ns - info["submit_ns"]) / 1e9
            info.update(
                trace_id=mint_trace_id(seq),
                worker=wid,
                service_s=service_s,
                queue_wait_s=max(0.0, turnaround_s - service_s),
                arrival_ns=arrival_ns,
                worker_spans=spans or [],
            )
            self._trace_log.append(info)
        key = self._cache_keys.pop(seq, None)
        if key is not None and entry is not None:
            # A k-SOI entry arrives as columns: its result list is built
            # once here, so every parent hit is a list slice.
            self._result_cache.store(key, list(entry))
        return seq, status, body, service_s

    def _hand_back(self, seq: int, status: str, body, service_s: float):
        """Complete ``seq`` for the caller: its payload, or its error."""
        self._inflight.discard(seq)
        self._completions.append(monotonic_now())
        self._completed_total += 1
        if status == "error":
            raise _rehydrate_error(*body)
        return seq, body, service_s

    def _arrived(self) -> list[tuple]:
        """Every result already in the result pipe, without waiting."""
        results = []
        while True:
            try:
                results.append(self._results.get(timeout=0.0))
            except queue_mod.Empty:
                return results

    def _check_workers_alive(self) -> None:
        dead = [(wid, p) for wid, p in enumerate(self._workers)
                if not p.is_alive()]
        if not dead or not self._inflight:
            return
        # Results that arrived before the loss stay with the parent:
        # next_result hands them back before anything else.
        for result in self._arrived():
            seq, *entry = self._accept(result)
            self._ready[seq] = tuple(entry)
        if self._ready:
            return
        descriptions = []
        for wid, process in dead:
            last = self._last_done.get(wid)
            descriptions.append(
                f"{process.name} (pid {process.pid}, "
                f"exitcode {process.exitcode}, last completed request "
                f"{'none' if last is None else last})")
        raise WorkerCrashError(
            f"worker(s) {', '.join(descriptions)} died with "
            f"{len(self._inflight)} task(s) in flight; unaccounted "
            f"request id(s): {sorted(self._inflight)}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"EngineServer(workers={len(self._workers)}, "
                f"snapshot={self._snapshot.name!r}, "
                f"generation={self._snapshot.generation}, "
                f"inflight={len(self._inflight)})")


__all__ = [
    "DescribeRequest",
    "EngineServer",
    "Request",
    "SOIRequest",
    "serve_request",
    "serve_request_cached",
]
