"""Slow-query log: span tree + counters for queries over a threshold.

Disabled unless a threshold is configured — via the ``REPRO_SLOWLOG``
environment variable (a float, seconds) or :func:`configure`.  The query
entry points bracket their work with ``TRACER.mark()`` and hand the
elapsed seconds, the query's counters and its span window to
:meth:`SlowQueryLog.maybe_record`; entries keep the full span tree (as
dicts) so a regression flagged by ``--check-against`` can be explained
from the log alone, without re-running the query under a profiler.

A threshold of ``0.0`` records every query — useful for tests and for
capturing one-off traces without picking a cutoff.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Sequence

from repro.obs.tracer import SpanRecord, current_trace_id

DEFAULT_CAPACITY = 32


def _env_threshold(value: str | None) -> float | None:
    value = (value or "").strip()
    if not value:
        return None
    try:
        return float(value)
    except ValueError:
        return None


class SlowQueryLog:
    """Bounded log of the slowest-query evidence bundles."""

    def __init__(self, threshold_s: float | None = None,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        self.threshold_s = threshold_s
        self._records: deque[dict] = deque(maxlen=capacity)

    @property
    def enabled(self) -> bool:
        return self.threshold_s is not None

    def configure(self, threshold_s: float | None) -> None:
        """Set the slow threshold in seconds (``None`` disables)."""
        self.threshold_s = threshold_s

    def maybe_record(self, kind: str, descriptor: dict, seconds: float,
                     counters: dict | None = None,
                     spans: Sequence[SpanRecord] = (),
                     trace_id: str | None = None) -> bool:
        """Record the query if it is slow enough; returns whether it was.

        ``trace_id`` defaults to the trace id bound to the calling thread
        (see :class:`repro.obs.tracer.trace_context`).  The log covers
        in-process Algorithm 1 (:meth:`~repro.core.soi.SOIEngine.top_k`)
        and ST_Rel+Div queries only: a served request runs
        :meth:`~repro.core.soi_baseline.BaselineSOI.ranking` or
        :meth:`~repro.core.describe.greedy.GreedyDescriber.select_with_stats`,
        neither of which records here, and no channel ships a worker's log
        to the parent, so no entry joins a served request's trace id.
        """
        threshold = self.threshold_s
        if threshold is None or seconds < threshold:
            return False
        if trace_id is None:
            trace_id = current_trace_id()
        self._records.append({
            "kind": kind,
            "descriptor": dict(descriptor),
            "seconds": seconds,
            "threshold_s": threshold,
            "trace_id": trace_id,
            "counters": dict(counters) if counters else {},
            "spans": [span.to_dict() for span in spans],
        })
        return True

    def records(self) -> list[dict]:
        return list(self._records)

    def clear(self) -> None:
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)


SLOWLOG = SlowQueryLog(threshold_s=_env_threshold(os.environ.get("REPRO_SLOWLOG")))
"""Process-global slow-query log used by the SOI/describe entry points."""


def configure(threshold_s: float | None) -> None:
    """Configure the global slow-query log threshold (seconds)."""
    SLOWLOG.configure(threshold_s)


__all__ = [
    "DEFAULT_CAPACITY",
    "SLOWLOG",
    "SlowQueryLog",
    "configure",
]
