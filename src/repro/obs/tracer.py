"""A near-zero-overhead span tracer for the SOI/describe/serve hot paths.

Tracing is **off by default**: every instrumentation site reduces to one
module-attribute read (``tracer.ENABLED``) — the same switch discipline as
:mod:`repro.analysis.contracts` — plus, for phase-level sites, one no-op
context-manager round trip.  Enabled via the ``REPRO_TRACE=1`` environment
variable, the ``--trace`` CLI flags, or :func:`enable_tracing` in code.

When enabled, :class:`trace_span` records :class:`SpanRecord` entries into
the process-global :class:`Tracer`'s **monotonic-clock ring buffer**
(``time.perf_counter_ns`` timestamps, a bounded :class:`~collections.deque`
that drops the oldest finished spans once full).  Spans nest through a
per-thread open-span stack, so the records form one well-formed tree per
thread; records are appended on span *exit*, which means children precede
their parents in buffer order (exporters in :mod:`repro.obs.export`
reconstruct the tree from ``parent_id``).

``trace_span`` is both a context manager and a decorator::

    with trace_span("soi.filter", k=k):
        ...

    @trace_span("snapshot.export")
    def export(...): ...

The decorator form re-checks ``ENABLED`` on every call, so decorating at
import time (when tracing is usually off) costs one branch per call.

This module is also the only sanctioned clock source for ``core/`` and
``serve/`` code: :func:`perf_now` / :func:`monotonic_now` re-export the
monotonic timers so the REP-O501 lint rule can flag direct ``time.*``
timer calls outside :mod:`repro.obs`.

**Trace context.**  A *trace id* is a request-scoped correlation key: the
serve layer mints one deterministically per request
(:func:`mint_trace_id`, seeded from the request's sequence number — no
wall clock, no randomness), binds it with :class:`trace_context`, and
every span finished inside the binding carries it.  The same id travels
into latency-sketch exemplars, so a slow served request found in the
sketches can be joined against the stitched trace.  The slow-query log
stamps the bound id too, but it records only in-process Algorithm 1 and
ST_Rel+Div queries: no served path records into it, and no channel ships
a worker's log to the parent.

**Span-name registry.**  :data:`SPAN_NAMES` is the closed set of span
names the instrumented packages may use.  Lint rule REP-O503 rejects
``trace_span`` call sites under ``core/``/``serve/``/``index/`` whose
name is not in this table (or is not a string literal), which keeps span
cardinality bounded and names typo-free — a misspelled phase would
otherwise silently vanish from every profile that filters by name.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import deque
from dataclasses import dataclass
from time import monotonic as monotonic_now
from time import perf_counter as perf_now
from time import perf_counter_ns as _clock_ns

DEFAULT_CAPACITY = 65536
"""Ring-buffer size of the global tracer: enough for several fully traced
queries; older finished spans are dropped (and counted) beyond it."""

DROPPED_SPANS_METRIC = "obs.trace.dropped_spans"
"""Registry counter bumped whenever the ring buffer evicts a finished
span: a nonzero value means traces read from the buffer are truncated."""

SPAN_NAMES = frozenset({
    # Algorithm 1 (k-SOI: filter / refine round structure).
    "soi.query", "soi.baseline_query", "soi.build_source_lists",
    "soi.filter", "soi.pull", "soi.mass_kernel",
    "soi.termination_check", "soi.refine",
    # Algorithm 2 (describe: round / bounds structure).
    "describe.select", "describe.round", "describe.filter",
    "describe.refine", "describe.cell_bounds", "describe.fold_bounds",
    "describe.profile_build",
    # Index construction and eps-augmentation.
    "index.build", "index.poi_grid", "index.cell_maps",
    "index.store_layout", "index.augment_eps", "index.slot_incidence",
    # Snapshot lifecycle and serving.
    "snapshot.export", "snapshot.attach", "snapshot.attach_network",
    "snapshot.attach_pois", "snapshot.attach_photo_set",
    "snapshot.attach_cell_maps", "snapshot.attach_engine",
    "serve.request",
})
"""Central span-name table (see module docstring).  Adding an
instrumentation site under ``core/``/``serve/``/``index/`` requires
registering its name here first; REP-O503 enforces it."""


def _env_enabled(value: str | None) -> bool:
    return (value or "").strip().lower() not in ("", "0", "false", "no", "off")


ENABLED: bool = _env_enabled(os.environ.get("REPRO_TRACE"))
"""Module-level switch read by the instrumentation sites.  Mutate only
through :func:`enable_tracing`."""


def enable_tracing(on: bool = True) -> None:
    """Turn span tracing on (or off) for this process."""
    global ENABLED
    ENABLED = bool(on)


def tracing_enabled() -> bool:
    """Whether span tracing is currently active."""
    return ENABLED


class tracing_scope:
    """Context manager that sets the tracing switch and restores it on exit.

    Used by the bench harness and the tests so a traced measurement cannot
    leak the enabled state into subsequent untraced ones.
    """

    __slots__ = ("_on", "_previous")

    def __init__(self, on: bool = True) -> None:
        self._on = bool(on)
        self._previous = ENABLED

    def __enter__(self) -> "tracing_scope":
        self._previous = ENABLED
        enable_tracing(self._on)
        return self

    def __exit__(self, *exc_info) -> bool:
        enable_tracing(self._previous)
        return False


# -- trace context ----------------------------------------------------------

_context = threading.local()


def mint_trace_id(request_id: int, namespace: str = "req") -> str:
    """Deterministic request-scoped trace id.

    Derived purely from the request's sequence number (plus an optional
    caller namespace) — no wall clock, no randomness — so replaying the
    same workload mints the same ids and traces stay joinable across
    runs.
    """
    return f"{namespace}-{request_id:06d}"


def current_trace_id() -> str | None:
    """The trace id bound to this thread, or ``None`` outside a request."""
    return getattr(_context, "trace_id", None)


class trace_context:
    """Bind a trace id to the current thread for the ``with`` block.

    Every span finished inside the block (and every slow-query-log entry
    and sketch exemplar recorded from it) carries the id.  Bindings nest:
    the previous id is restored on exit, so a request served inside an
    already-bound scope cannot leak its id outwards.
    """

    __slots__ = ("_trace_id", "_previous")

    def __init__(self, trace_id: str | None) -> None:
        self._trace_id = trace_id
        self._previous: str | None = None

    def __enter__(self) -> "trace_context":
        self._previous = getattr(_context, "trace_id", None)
        _context.trace_id = self._trace_id
        return self

    def __exit__(self, *exc_info) -> bool:
        _context.trace_id = self._previous
        return False


@dataclass(slots=True)
class SpanRecord:
    """One finished span: monotonic nanosecond interval plus tree links.

    ``parent_id`` is ``-1`` for a root span.  ``attrs`` carries the keyword
    attributes given to :class:`trace_span`; a span that exited through an
    exception gains an ``"error"`` attribute holding the exception type
    name.  ``trace_id`` is the request correlation key bound via
    :class:`trace_context` when the span finished (``None`` outside a
    request).
    """

    span_id: int
    parent_id: int
    name: str
    start_ns: int
    end_ns: int
    thread_id: int
    attrs: dict | None = None
    trace_id: str | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def to_dict(self) -> dict:
        """JSON-ready representation (used by the exporters)."""
        out = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "thread_id": self.thread_id,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        """Rebuild a record from :meth:`to_dict` output (worker shipping)."""
        return cls(
            span_id=int(data["span_id"]),
            parent_id=int(data["parent_id"]),
            name=data["name"],
            start_ns=int(data["start_ns"]),
            end_ns=int(data["end_ns"]),
            thread_id=int(data.get("thread_id", 0)),
            attrs=dict(data["attrs"]) if data.get("attrs") else None,
            trace_id=data.get("trace_id"),
        )


class Tracer:
    """A ring buffer of finished spans plus per-thread open-span stacks.

    Span ids increase monotonically per tracer; the buffer keeps the most
    recent ``capacity`` finished spans (``dropped`` counts the overflow).
    All buffer mutation happens under a lock, and each thread nests spans
    on its own stack, so concurrent traced sections (e.g. the bench
    harness's threaded per-city setup) produce interleaved but internally
    well-formed trees.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self._buffer: deque[SpanRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.finished_total = 0
        self.dropped = 0

    # -- span lifecycle (driven by trace_span) -----------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, attrs: dict | None = None) -> tuple:
        """Open a span; returns the frame to pass to :meth:`finish`."""
        stack = self._stack()
        parent_id = stack[-1][0] if stack else -1
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        frame = (span_id, parent_id, name, attrs, _clock_ns())
        stack.append(frame)
        return frame

    def finish(self, frame: tuple, exc_type: type | None = None) -> SpanRecord:
        """Close a span frame and append its record to the ring buffer."""
        end_ns = _clock_ns()
        stack = self._stack()
        # ``with``-statement discipline guarantees LIFO unwinding, including
        # on exceptions; tolerate a mismatched frame rather than corrupting
        # sibling spans.
        if stack and stack[-1] is frame:
            stack.pop()
        elif frame in stack:  # pragma: no cover - defensive
            stack.remove(frame)
        span_id, parent_id, name, attrs, start_ns = frame
        if exc_type is not None:
            attrs = dict(attrs) if attrs else {}
            attrs["error"] = exc_type.__name__
        record = SpanRecord(
            span_id=span_id, parent_id=parent_id, name=name,
            start_ns=start_ns, end_ns=end_ns,
            thread_id=threading.get_ident(), attrs=attrs,
            trace_id=getattr(_context, "trace_id", None))
        with self._lock:
            dropping = len(self._buffer) == self.capacity
            if dropping:
                self.dropped += 1
            self._buffer.append(record)
            self.finished_total += 1
        if dropping:
            # Surfaced as a registry counter so truncated ring buffers are
            # never silently misread as complete profiles (the import is
            # deferred: metrics is a sibling leaf module, but the common
            # non-dropping path should not even touch it).
            from repro.obs import metrics as _metrics

            _metrics.REGISTRY.inc(DROPPED_SPANS_METRIC)
        return record

    # -- buffer access -----------------------------------------------------

    def mark(self) -> int:
        """The next span id to be assigned (for :meth:`spans_since`)."""
        with self._lock:
            return self._next_id

    def spans(self) -> list[SpanRecord]:
        """Finished spans currently in the ring buffer (oldest first)."""
        with self._lock:
            return list(self._buffer)

    def spans_since(self, mark: int) -> list[SpanRecord]:
        """Finished spans whose id was assigned at or after ``mark``."""
        return [span for span in self.spans() if span.span_id >= mark]

    def drain(self) -> list[SpanRecord]:
        """Return and clear the buffered spans."""
        with self._lock:
            out = list(self._buffer)
            self._buffer.clear()
            return out

    def reset(self) -> None:
        """Clear the buffer and all counters (ids keep increasing)."""
        with self._lock:
            self._buffer.clear()
            self.finished_total = 0
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)


TRACER = Tracer()
"""The process-global tracer all :class:`trace_span` sites record into.
Deliberately per-process: serving workers trace into their own buffer, and
only the (picklable) metrics registry travels back to the parent."""


class trace_span:
    """Span over the global tracer — context manager *and* decorator.

    As a context manager it opens a span when tracing is enabled and is a
    no-op otherwise.  As a decorator it wraps the function in the same
    span, re-checking the switch on every call.  Keyword arguments become
    span attributes.
    """

    __slots__ = ("_name", "_attrs", "_frame")

    def __init__(self, name: str, **attrs) -> None:
        self._name = name
        self._attrs = attrs or None
        self._frame = None

    def __enter__(self) -> "trace_span":
        if ENABLED:
            self._frame = TRACER.begin(self._name, self._attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        frame = self._frame
        if frame is not None:
            self._frame = None
            TRACER.finish(frame, exc_type)
        return False

    def __call__(self, fn):
        name, attrs = self._name, self._attrs

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ENABLED:
                return fn(*args, **kwargs)
            frame = TRACER.begin(name, attrs)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                TRACER.finish(frame, type(exc))
                raise
            TRACER.finish(frame, None)
            return result

        return wrapper


__all__ = [
    "DEFAULT_CAPACITY",
    "DROPPED_SPANS_METRIC",
    "ENABLED",
    "SPAN_NAMES",
    "SpanRecord",
    "TRACER",
    "Tracer",
    "current_trace_id",
    "enable_tracing",
    "mint_trace_id",
    "monotonic_now",
    "perf_now",
    "trace_context",
    "trace_span",
    "tracing_enabled",
    "tracing_scope",
]
