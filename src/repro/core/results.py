"""Result and statistics records shared by the SOI engine and its baseline.

:class:`SOIResult` is one street of an answer; :class:`SOIRanking` holds
a complete BL ranking as columns and builds results only for the rows
it is sliced to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.interest import validate_query


@dataclass(frozen=True, slots=True)
class SOIQuery:
    """A k-SOI query ``q = <Psi, k, eps>`` (Problem 1).

    ``keywords`` are normalised at construction; invalid parameters raise
    :class:`~repro.errors.QueryError`.
    """

    keywords: frozenset[str]
    k: int
    eps: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "keywords",
            validate_query(self.keywords, self.k, self.eps))


@dataclass(frozen=True, slots=True)
class SOIResult:
    """One street in a k-SOI answer.

    ``interest`` is the exact street interest (Definition 3) and
    ``best_segment_id`` the segment attaining it.
    """

    street_id: int
    street_name: str
    interest: float
    best_segment_id: int

    def __reduce__(self):
        # Positional reconstruction: a served page crosses the worker
        # result pipe as up to k of these (a complete ranking crosses as
        # a SOIRanking's columns), and the default slotted dataclass
        # pickling (field by field) costs ~30x more.
        return (SOIResult, (self.street_id, self.street_name,
                            self.interest, self.best_segment_id))


@dataclass(frozen=True, slots=True, eq=False)
class SOIRanking:
    """Every street of positive interest, ranked, as columns.

    Row ``i`` is the ``i``-th street of the ranking: ``street_ids``
    (int64), ``interests`` (float64), ``best_segment_ids`` (int64) and
    ``street_names``.  The arrays are read-only and the names a tuple,
    so a ranking is immutable.  Slicing, ``ranking[:k]``, builds a fresh
    ``list`` of :class:`SOIResult` for those rows only; iterating
    builds every row.  A ranking pickles as its columns, never as
    :class:`SOIResult` objects.
    """

    street_ids: np.ndarray
    interests: np.ndarray
    best_segment_ids: np.ndarray
    street_names: tuple[str, ...]

    def __post_init__(self) -> None:
        for column in (self.street_ids, self.interests,
                       self.best_segment_ids):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.street_names)

    def __getitem__(self, rows: slice) -> list[SOIResult]:
        if not isinstance(rows, slice):
            raise TypeError("an SOIRanking is sliced, not indexed: "
                            f"ranking[:k], not ranking[{rows!r}]")
        # .tolist() gives the Python ints and floats, bit for bit, that
        # a row-by-row read of the columns would.
        return list(map(SOIResult, self.street_ids[rows].tolist(),
                        self.street_names[rows],
                        self.interests[rows].tolist(),
                        self.best_segment_ids[rows].tolist()))

    def __iter__(self) -> Iterator[SOIResult]:
        return iter(self[:])

    def __reduce__(self):
        return (SOIRanking, (self.street_ids, self.interests,
                             self.best_segment_ids, self.street_names))


@dataclass(slots=True)
class SOIStats:
    """Work counters of one SOI run, for the performance experiments.

    ``phase_seconds`` records the three phases the paper breaks Figure 4
    bars into: ``"build"`` (source-list construction, including the
    slot-mass materialisation), ``"filter"`` and ``"refine"``.

    The kernel and cache counters instrument the performance layer:
    ``kernel_calls`` counts the slot-mass passes the run performed, one
    per materialisation that found a relevant slot (0 when it read slot
    masses an earlier run materialised).  A pass computes no distance:
    it reads the store layout's within-``eps`` incidence, which one
    call of the row-wise distance kernel
    (:func:`~repro.geometry.distance.points_segments_within`) built per
    ``(engine, eps)``.  ``mass_cache_misses`` counts
    the relevant ``(segment, cell)`` slots that materialisation filled,
    and ``mass_cache_hits`` the relevant slot masses the run read from
    slots an earlier run filled.  ``session_reused`` is
    true when the run was served from a warm
    :class:`~repro.perf.session.QuerySession`; ``store_reused`` when the
    run recycled a session-pooled
    :class:`~repro.core.state_store.SegmentStateStore` instead of
    allocating fresh columns.  ``termination_checks`` counts LBk >= UB
    evaluations and ``lbk_heap_updates`` improvements pushed into the
    incremental top-k threshold heap.

    ``complete`` marks a run whose ranking holds every street of positive
    interest: the filter stopped with UB <= 0 and refinement pruned
    nothing, so a fresh run at any larger ``k`` returns a prefix of it.
    It describes the answer, not the work, so :meth:`counters` leaves it
    out.

    A BL ranking served in place of a run moves only the pass's counters
    and times no phase.
    """

    cells_popped: int = 0
    segments_popped: int = 0
    segments_seen: int = 0
    segments_finalized_in_filter: int = 0
    cell_visits: int = 0
    refinement_finalized: int = 0
    refinement_pruned: int = 0
    iterations: int = 0
    termination_checks: int = 0
    lbk_heap_updates: int = 0
    kernel_calls: int = 0
    mass_cache_hits: int = 0
    mass_cache_misses: int = 0
    session_reused: bool = False
    store_reused: bool = False
    complete: bool = False
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def counters(self) -> dict[str, int]:
        """The integer work counters as a plain dict (for ``repro bench``)."""
        return {
            "cells_popped": self.cells_popped,
            "segments_popped": self.segments_popped,
            "segments_seen": self.segments_seen,
            "segments_finalized_in_filter": self.segments_finalized_in_filter,
            "cell_visits": self.cell_visits,
            "refinement_finalized": self.refinement_finalized,
            "refinement_pruned": self.refinement_pruned,
            "iterations": self.iterations,
            "termination_checks": self.termination_checks,
            "lbk_heap_updates": self.lbk_heap_updates,
            "kernel_calls": self.kernel_calls,
            "mass_cache_hits": self.mass_cache_hits,
            "mass_cache_misses": self.mass_cache_misses,
            "session_reused": int(self.session_reused),
            "store_reused": int(self.store_reused),
        }
