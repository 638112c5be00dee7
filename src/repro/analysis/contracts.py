"""Runtime invariant contracts for the SOI and describe hot paths.

The paper's algorithms are *exact*: every speed-up rests on a bound that
must sandwich the true value.  This module asserts those obligations at
runtime — but only when asked, because the checks cost work the production
path must not pay:

* disabled (the default): every hook reduces to a single module-attribute
  read (``contracts.ENABLED``), measured at well under 2% on the smallest
  Figure 4 benchmark configuration;
* enabled via the ``REPRO_CHECK=1`` environment variable, the ``--check``
  CLI flag, or :func:`enable_contracts` in code: violations raise
  :class:`~repro.errors.ContractViolation`.

Contract -> paper map (details in DESIGN.md):

===================================  ====================================
check                                paper obligation
===================================  ====================================
:func:`check_definition2`            Definition 2: ``eps > 0``, mass >= 0,
                                     positive buffer area
:class:`SOIContractMonitor`          Lemma 1 / Algorithm 1: LBk
                                     non-decreasing, UB non-increasing,
                                     results exactly ranked; sampled
                                     indexed-vs-brute-force mass
                                     agreement (Definition 1)
:func:`check_describe_candidate`     Equations 11-18: relevance,
                                     diversity and mmr cell bounds
                                     sandwich the exact values
                                     (Equation 10)
:func:`check_describe_cell_columns`  Equations 11-14: the describer's
                                     column pass equals the per-cell
                                     reference bit for bit
===================================  ====================================

The check helpers import :mod:`repro.core` lazily — they only run on the
cold (enabled) path, and the core modules import this one.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import ContractViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.describe.bounds import CellBoundsContext
    from repro.core.describe.profile import StreetProfile
    from repro.core.results import SOIResult
    from repro.core.soi import SOIEngine
    from repro.core.state_store import MassSlots, StoreLayout
    from repro.index.photo_grid import PhotoCell

BOUND_TOL = 1e-9
"""Absolute slack allowed between a bound and the exact value it brackets
(floating-point reassociation noise, orders of magnitude below any real
bound violation)."""

MASS_SAMPLE = 3
"""How many top results the Definition 1 brute-force cross-check samples."""


def _env_enabled(value: str | None) -> bool:
    return (value or "").strip().lower() not in ("", "0", "false", "no", "off")


ENABLED: bool = _env_enabled(os.environ.get("REPRO_CHECK"))
"""Module-level switch read by the hot paths.  Mutate only through
:func:`enable_contracts`."""


def enable_contracts(on: bool = True) -> None:
    """Turn the runtime contracts on (or off) for this process."""
    global ENABLED
    ENABLED = bool(on)


def contracts_enabled() -> bool:
    """Whether contract checks are currently active."""
    return ENABLED


def _violation(contract: str, message: str) -> ContractViolation:
    return ContractViolation(f"[{contract}] {message}")


# -- Definition 2: interest is a well-defined nonnegative density ------------

def check_definition2(mass: float, length: float, eps: float) -> None:
    """Definition 2 preconditions for ``segment_interest``."""
    if eps <= 0.0:
        raise _violation(
            "def2", f"eps must be positive for a mass density, got {eps}")
    if length < 0.0:
        raise _violation("def2", f"segment length is negative: {length}")
    if mass < 0.0:
        raise _violation("def2", f"segment mass is negative: {mass}")


# -- Algorithm 1: threshold monotonicity and result exactness ----------------

class SOIContractMonitor:
    """Per-query observer of Algorithm 1's invariants.

    Instantiated by ``_SOIRun`` only when contracts are enabled, so the
    disabled path never allocates it.
    """

    __slots__ = ("_prev_lbk", "_prev_ub", "observations")

    def __init__(self) -> None:
        self._prev_lbk = 0.0
        self._prev_ub = float("inf")
        self.observations = 0

    def observe_threshold(self, lbk: float, ub: float) -> None:
        """LBk may only grow, UB may only shrink (Lemma 1's safety)."""
        self.observations += 1
        if lbk < 0.0:
            raise _violation("soi-threshold", f"LBk is negative: {lbk}")
        if lbk < self._prev_lbk - BOUND_TOL:
            raise _violation(
                "soi-threshold",
                f"seen lower bound LBk decreased: {self._prev_lbk} -> "
                f"{lbk}")
        if ub > self._prev_ub + BOUND_TOL:
            raise _violation(
                "soi-threshold",
                f"unseen upper bound UB increased: {self._prev_ub} -> "
                f"{ub}")
        self._prev_lbk = max(self._prev_lbk, lbk)
        self._prev_ub = min(self._prev_ub, ub)

    def check_results(
        self,
        engine: "SOIEngine",
        query: frozenset[str],
        eps: float,
        weighted: bool,
        k: int,
        results: "list[SOIResult]",
        layout: "StoreLayout",
        slots: "MassSlots",
    ) -> None:
        """Output contract of ``top_k`` plus the Definition 1 cross-check.

        The reported interests must be positive, strictly ranked with the
        documented (interest desc, street id asc) tie-break, at most ``k``
        long — and for a deterministic sample of the winners, the indexed
        mass of the best segment (summed from the run's materialised
        ``slots`` over ``layout``) must agree with a full brute-force scan
        and reproduce the reported interest exactly.
        """
        from repro.core.interest import (
            segment_interest,
            segment_mass,
            segment_mass_bruteforce,
        )

        if len(results) > k:
            raise _violation(
                "soi-results", f"{len(results)} results for k={k}")
        seen_streets = set()
        for prev, current in zip(results, results[1:]):
            ordered = (current.interest < prev.interest
                       or (current.interest == prev.interest
                           and current.street_id > prev.street_id))
            if not ordered:
                raise _violation(
                    "soi-results",
                    f"results not ranked: street {prev.street_id} "
                    f"({prev.interest}) before street "
                    f"{current.street_id} ({current.interest})")
        for result in results:
            if result.interest <= 0.0:
                raise _violation(
                    "soi-results",
                    f"street {result.street_id} reported with "
                    f"non-positive interest {result.interest}")
            if result.street_id in seen_streets:
                raise _violation(
                    "soi-results",
                    f"street {result.street_id} reported twice")
            seen_streets.add(result.street_id)

        for result in results[:MASS_SAMPLE]:
            segment = engine.network.segment(result.best_segment_id)
            indexed = segment_mass(layout, slots,
                                   layout.dense_index[segment.id])
            brute = segment_mass_bruteforce(segment, engine.pois, query,
                                            eps, weighted)
            if abs(indexed - brute) > BOUND_TOL * max(1.0, abs(brute)):
                raise _violation(
                    "def1-mass",
                    f"indexed mass {indexed} disagrees with brute-force "
                    f"mass {brute} on segment {segment.id}")
            reported = result.interest
            exact = segment_interest(brute, segment.length, eps)
            if abs(reported - exact) > BOUND_TOL * max(1.0, abs(exact)):
                raise _violation(
                    "def1-mass",
                    f"reported interest {reported} of street "
                    f"{result.street_id} disagrees with brute-force "
                    f"interest {exact}")


# -- Equations 11-18: describe-stage cell bounds -----------------------------

def check_describe_candidate(
    profile: "StreetProfile",
    bounds: "CellBoundsContext",
    cell: "PhotoCell",
    pos: int,
    selected: "Iterable[int]",
    lam: float,
    w: float,
    k: int,
    exact_mmr: float,
) -> None:
    """Every cell bound must sandwich the exact value for ``pos``.

    Checks, for one candidate photo examined during refinement: the
    relevance bounds (Equations 11-14) against the profile's precomputed
    per-photo relevances, the per-selected diversity bounds (Equations
    15-18) against the exact pairwise measures, and the combined ``mmr``
    bounds against the exact Equation 10 value.
    """
    from repro.core.describe.measures import spatial_div, textual_div

    rel = bounds.relevance_bounds(cell)
    _check_sandwich(rel.spatial_lo, float(profile.spatial_rel[pos]),
                    rel.spatial_hi, "eq11-12-spatial-rel", cell.coord, pos)
    _check_sandwich(rel.textual_lo, float(profile.textual_rel[pos]),
                    rel.textual_hi, "eq13-14-textual-rel", cell.coord, pos)
    for other in selected:
        s_lo, s_hi = bounds.spatial_div_bounds(cell, other)
        _check_sandwich(s_lo, spatial_div(profile, pos, other), s_hi,
                        "eq15-16-spatial-div", cell.coord, pos)
        t_lo, t_hi = bounds.textual_div_bounds(cell, other)
        _check_sandwich(t_lo, textual_div(profile, pos, other), t_hi,
                        "eq17-18-textual-div", cell.coord, pos)
    mmr_lo, mmr_hi = bounds.mmr_bounds(cell, list(selected), lam, w, k)
    _check_sandwich(mmr_lo, exact_mmr, mmr_hi, "eq10-mmr", cell.coord, pos)


_CELL_COLUMNS = ("eq11-spatial-rel-lo", "eq12-spatial-rel-hi",
                 "eq13-textual-rel-lo", "eq14-textual-rel-hi", "members",
                 "psi-min", "psi-max", "box-min-x", "box-min-y",
                 "box-max-x", "box-max-y")


def check_describe_cell_columns(bounds: "CellBoundsContext",
                                relevance: Sequence) -> None:
    """The describer's slot columns must equal the scalar reference.

    For every occupied cell, in slot order: the four Equation 11-14
    columns ``relevance`` (spatial lo/hi, textual lo/hi) bitwise equal
    :meth:`CellBoundsContext.relevance_bounds`, and the grid's members,
    ``psi_min``/``psi_max`` and rectangle columns equal the decoded
    :class:`~repro.index.photo_grid.PhotoCell` and
    :meth:`~repro.index.photo_grid.PhotoGridIndex.cell_bbox`.
    """
    index = bounds.index
    for slot, cell in enumerate(index.cells()):
        ref = bounds.relevance_bounds(cell)
        box = index.cell_bbox(cell.coord)
        want = (ref.spatial_lo, ref.spatial_hi, ref.textual_lo,
                ref.textual_hi, cell.positions, cell.psi_min, cell.psi_max,
                box.min_x, box.min_y, box.max_x, box.max_y)
        got = (*(float(column[slot]) for column in relevance),
               index.cell_positions[slot], int(index.psi_min[slot]),
               int(index.psi_max[slot]), float(index.box_x0[slot]),
               float(index.box_y0[slot]), float(index.box_x1[slot]),
               float(index.box_y1[slot]))
        for name, value, expected in zip(_CELL_COLUMNS, got, want):
            if value != expected:
                raise _violation(
                    "describe-cell-columns",
                    f"cell {cell.coord} (slot {slot}): {name} column holds "
                    f"{value!r}, the scalar reference {expected!r}")


def check_describe_selection(best_pos: int, iteration: int) -> None:
    """The bound filter must never eliminate every candidate."""
    if best_pos < 0:
        raise _violation(
            "describe-selection",
            f"bound filtering eliminated all candidates in iteration "
            f"{iteration} (an upper bound is too tight)")


def _check_sandwich(lower: float, exact: float, upper: float,
                    contract: str, coord: tuple, pos: int) -> None:
    if lower - BOUND_TOL <= exact <= upper + BOUND_TOL:
        return
    raise _violation(
        contract,
        f"cell {coord} bounds [{lower}, {upper}] do not sandwich exact "
        f"value {exact} of photo position {pos}")


# -- Prefix stability: result reuse by slicing -------------------------------

def check_prefix_slice(sliced, fresh, key, k: int) -> None:
    """A cache hit sliced from a complete entry must equal a fresh
    computation.

    A k-SOI ranking is prefix-stable under its deterministic tie-break
    ``(-interest, street_id)``: the k-result is the first ``k`` entries
    of the complete ranking, which is what lets
    :class:`~repro.perf.result_cache.ResultCache` answer every ``k`` of a
    signature from its one stored ranking.  (Describe selections are not
    prefix-stable, which is why describe keys carry ``k``.)  This
    contract re-derives the k-answer from scratch and demands
    bit-identity — any divergence means the tie-break (or a cached
    entry) went stale.
    """
    if sliced != fresh:
        raise _violation(
            "prefix-slice",
            f"cache hit for key {key!r} at k={k} diverges from a fresh "
            f"computation: cached prefix {sliced!r} vs fresh {fresh!r}")
