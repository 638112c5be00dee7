"""Exact distance kernels.

These functions implement the distance semantics of the paper:

* ``dist(p, l)`` -- minimum Euclidean distance of a point to any point of a
  line segment (used by segment mass, Definition 1);
* point/box min and max distances (used by the spatial-diversity cell bounds,
  Equations 15-16);
* segment/box minimum distance (used to build the ``eps``-augmented
  cell-to-segment and segment-to-cell maps of Section 3.2.1).

Scalar kernels are pure Python; :func:`points_segments_within` is the
row-wise NumPy batch behind a store layout's within-``eps`` incidence
(:class:`repro.core.state_store.SlotIncidence`), which runs it once per
``(engine, eps)`` layout so that no k-SOI query computes a distance,
:func:`points_segment_distance` a one-segment distance batch, and
:func:`segments_bbox_mindist_batched` the cold-path batch behind the
vectorised ``eps``-augmentation of :mod:`repro.index.cell_maps`.

The batched kernels are **bit-identical** to their scalar counterparts:
every IEEE-754 operation is applied to the same operands in the same
order, and the one library call whose rounding is not pinned down by the
standard — ``math.hypot`` — is replaced by :func:`_hypot_exact`, a NumPy
transcription of CPython's scaled, compensated ``vector_norm`` algorithm
(``Modules/mathmodule.c``).  ``np.hypot`` is used only for Definition 1's
distance test, whose reference is itself ``np.hypot``-rounded
(:func:`points_segment_distance` and :func:`points_segments_within`): it
differs from ``math.hypot`` in the last ulp for roughly 0.07% of inputs
on this platform, which would break the augmented maps' set-equality
with the scalar reference.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.bbox import BBox
from repro.geometry.primitives import project_onto_segment, segments_intersect

_TINY_BOUND = 2.0 ** -1000
_HUGE_BOUND = 2.0 ** 1000
"""Magnitude band where the compensated emulation is used.  Outside it —
subnormal-result territory (where the rescale multiply double-rounds) and
the near-overflow fringe — rows defer to scalar ``math.hypot`` itself,
which keeps the batch bit-identical by construction.  Real coordinate
data never leaves the band."""

_DL_SPLIT = 134217729.0
"""Veltkamp split constant ``2**27 + 1`` for Dekker double-length
multiplication (``Modules/mathmodule.c`` ``dl_split``)."""


def _dl_mul(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker ``mul12``: the exact product ``x * y`` as ``(hi, lo)``.

    ``hi`` is the rounded product and ``lo`` the exact residual — the same
    pair a fused multiply-add would produce when the Veltkamp split does
    not overflow (guaranteed here: inputs are pre-scaled below 1).
    """
    z = x * y
    tx = x * _DL_SPLIT
    xh = tx - (tx - x)
    xl = x - xh
    ty = y * _DL_SPLIT
    yh = ty - (ty - y)
    yl = y - yh
    zz = (xh * yh - z) + xh * yl + xl * yh + xl * yl
    return z, zz


def _dl_fast_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray,
                                                        np.ndarray]:
    """Lossless addition for ``|a| >= |b|``: rounded sum plus residual."""
    x = a + b
    y = (a - x) + b
    return x, y


def _hypot_exact(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Elementwise ``math.hypot(dx, dy)``, bit-for-bit.

    Transcribes the scaled, compensated vector-norm algorithm behind
    ``math.hypot`` (CPython ``Modules/mathmodule.c``): scale both
    magnitudes by a power of two so the maximum lies in ``[0.5, 1)``,
    accumulate the squares in a compensated double-length sum seeded at
    ``1.0``, take the square root and apply one differential correction,
    then undo the scaling.  Every step is an exactly-rounded IEEE
    operation, so inside the normal-magnitude band the transcription
    reproduces the scalar library call bitwise (validated over random
    and boundary operands in the test suite).  Rows with zero/inf/nan
    operands or magnitudes outside ``[2**-1000, 2**1000]`` — where the
    rescale multiply can double-round a subnormal result — are computed
    by ``math.hypot`` itself, so the whole function is bit-identical for
    *every* float input.
    """
    dx = np.asarray(dx, dtype=np.float64)
    dy = np.asarray(dy, dtype=np.float64)
    a = np.fabs(dx)
    b = np.fabs(dy)
    nan_mask = np.isnan(a) | np.isnan(b)
    inf_mask = np.isinf(a) | np.isinf(b)
    mx = np.maximum(a, b)
    zero_mask = mx == 0.0  # repro-lint: disable=REP-N201 (exact sentinel: a both-zero operand row yields exactly 0.0 and must skip the rescale)
    finite = ~(nan_mask | inf_mask | zero_mask)
    extreme = finite & ((mx < _TINY_BOUND) | (mx > _HUGE_BOUND))
    park = ~finite | extreme
    park_any = bool(park.any())
    if park_any:
        # Park deferred rows on a harmless (3, 4) operand pair so the
        # dense computation below stays warning-free; their outputs are
        # patched at the end.
        a = np.where(park, 3.0, a)
        b = np.where(park, 4.0, b)
        mx = np.where(park, 4.0, mx)
    _mant, max_e = np.frexp(mx)
    scale = np.ldexp(1.0, -max_e)
    csum = np.ones_like(mx)
    frac1 = np.zeros_like(mx)
    frac2 = np.zeros_like(mx)
    for v in (a, b):
        x = v * scale  # lossless: power-of-two scaling
        pr_hi, pr_lo = _dl_mul(x, x)
        sm_hi, sm_lo = _dl_fast_sum(csum, pr_hi)
        csum = sm_hi
        frac1 = frac1 + pr_lo
        frac2 = frac2 + sm_lo
    h = np.sqrt(csum - 1.0 + (frac1 + frac2))
    pr_hi, pr_lo = _dl_mul(-h, h)
    sm_hi, sm_lo = _dl_fast_sum(csum, pr_hi)
    csum = sm_hi
    frac1 = frac1 + pr_lo
    frac2 = frac2 + sm_lo
    x = csum - 1.0 + (frac1 + frac2)
    # Differential correction step.
    h = h + x / (2.0 * h)  # repro-lint: disable=REP-N202 (h >= 0.5: every zero operand row is parked on the 3-4 pair above)
    out = h / scale  # repro-lint: disable=REP-N202 (scale is a nonzero power of two from ldexp by construction)
    if park_any:
        out = np.where(zero_mask, 0.0, out)
        out = np.where(nan_mask, np.nan, out)
        out = np.where(inf_mask, np.inf, out)  # inf wins over nan
        if extreme.any():
            flat_out = out.ravel()
            flat_dx = dx.ravel()
            flat_dy = dy.ravel()
            for i in np.flatnonzero(extreme.ravel()).tolist():
                flat_out[i] = math.hypot(flat_dx[i], flat_dy[i])
    return out


def point_distance(ax: float, ay: float, bx: float, by: float) -> float:
    """Euclidean distance between two points."""
    return math.hypot(bx - ax, by - ay)


def point_segment_distance(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> float:
    """Minimum distance from point ``p`` to segment ``a -> b``.

    This is the paper's ``dist(p, l)``: the minimum Euclidean distance
    between the POI location and any point on the segment.
    """
    t = project_onto_segment(px, py, ax, ay, bx, by)
    cx = ax + t * (bx - ax)
    cy = ay + t * (by - ay)
    return math.hypot(px - cx, py - cy)


def points_segment_distance(
    xs: np.ndarray, ys: np.ndarray,
    ax: float, ay: float, bx: float, by: float,
) -> np.ndarray:
    """Vectorised :func:`point_segment_distance` for arrays of points.

    ``xs`` and ``ys`` are 1-D arrays of equal length; the result is the
    array of distances from each ``(xs[i], ys[i])`` to segment ``a -> b``.
    """
    dx = bx - ax
    dy = by - ay
    denom = dx * dx + dy * dy
    if denom <= 0.0:
        return np.hypot(xs - ax, ys - ay)
    t = ((xs - ax) * dx + (ys - ay) * dy) / denom
    np.clip(t, 0.0, 1.0, out=t)
    cx = ax + t * dx
    cy = ay + t * dy
    return np.hypot(xs - cx, ys - cy)


def point_bbox_mindist(px: float, py: float, box: BBox) -> float:
    """Minimum distance from a point to a closed box (0 if inside)."""
    dx = max(box.min_x - px, 0.0, px - box.max_x)
    dy = max(box.min_y - py, 0.0, py - box.max_y)
    return math.hypot(dx, dy)


def point_bbox_maxdist(px: float, py: float, box: BBox) -> float:
    """Maximum distance from a point to any point of a closed box.

    Attained at the corner farthest from ``p``; used as the spatial
    diversity upper bound ``maxdist(r, c)`` of Equation 16.
    """
    dx = max(px - box.min_x, box.max_x - px)
    dy = max(py - box.min_y, box.max_y - py)
    return math.hypot(dx, dy)


def segment_segment_distance(
    ax: float, ay: float, bx: float, by: float,
    cx: float, cy: float, dx: float, dy: float,
) -> float:
    """Minimum distance between segments ``a-b`` and ``c-d``.

    Zero when they intersect; otherwise the minimum over the four
    endpoint-to-other-segment distances (which is exact for non-crossing
    segments in the plane).
    """
    if segments_intersect(ax, ay, bx, by, cx, cy, dx, dy):
        return 0.0
    return min(
        point_segment_distance(ax, ay, cx, cy, dx, dy),
        point_segment_distance(bx, by, cx, cy, dx, dy),
        point_segment_distance(cx, cy, ax, ay, bx, by),
        point_segment_distance(dx, dy, ax, ay, bx, by),
    )


def _closest_point_offsets(
    px: np.ndarray, py: np.ndarray,
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``(px - cx, py - cy)`` for the point ``c`` of each row's
    segment closest to ``p``, computed operation for operation as
    :func:`point_segment_distance` computes it before its ``hypot``."""
    dx = bx - ax
    dy = by - ay
    denom = dx * dx + dy * dy
    ok = denom > 0.0
    t = ((px - ax) * dx + (py - ay) * dy) / np.where(ok, denom, 1.0)  # repro-lint: disable=REP-N202 (degenerate rows divide by the 1.0 placeholder and are masked next line)
    t = np.where(ok, t, 0.0)
    t = np.clip(t, 0.0, 1.0)
    cx = ax + t * (bx - ax)
    cy = ay + t * (by - ay)
    return px - cx, py - cy


def _points_segments_distance(
    px: np.ndarray, py: np.ndarray,
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray,
) -> np.ndarray:
    """Row-wise :func:`point_segment_distance` (segment varies per row).

    Unlike :func:`points_segment_distance` (one shared segment, hot-path
    rounding), this mirrors the scalar kernel operation-for-operation —
    including the exact-hypot tail — so it can participate in bit-identical
    batched predicates.
    """
    return _hypot_exact(*_closest_point_offsets(px, py, ax, ay, bx, by))


def points_segments_within(
    px: np.ndarray, py: np.ndarray,
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Row-wise ``dist(p, l) <= eps``, one segment per row, as booleans.

    The distance is rounded as :func:`points_segment_distance` rounds it
    (``np.hypot``), the rounding of Definition 1's brute-force reference
    (:func:`~repro.core.interest.segment_mass_bruteforce`), so a POI on
    ``eps``'s rounding boundary counts the same way on every path.
    """
    return np.hypot(*_closest_point_offsets(px, py, ax, ay, bx, by)) <= eps


def _orient_batched(ox: np.ndarray, oy: np.ndarray,
                    px: np.ndarray, py: np.ndarray,
                    qx: np.ndarray, qy: np.ndarray) -> np.ndarray:
    return (px - ox) * (qy - oy) - (py - oy) * (qx - ox)


def _on_span_batched(ox: np.ndarray, oy: np.ndarray,
                     px: np.ndarray, py: np.ndarray,
                     qx: np.ndarray, qy: np.ndarray) -> np.ndarray:
    return ((np.minimum(ox, px) <= qx) & (qx <= np.maximum(ox, px))
            & (np.minimum(oy, py) <= qy) & (qy <= np.maximum(oy, py)))


def _segments_intersect_batched(
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray,
    cx: np.ndarray, cy: np.ndarray, dx: np.ndarray, dy: np.ndarray,
) -> np.ndarray:
    """Row-wise :func:`repro.geometry.primitives.segments_intersect`."""
    d1 = _orient_batched(ax, ay, bx, by, cx, cy)
    d2 = _orient_batched(ax, ay, bx, by, dx, dy)
    d3 = _orient_batched(cx, cy, dx, dy, ax, ay)
    d4 = _orient_batched(cx, cy, dx, dy, bx, by)
    proper = (((d1 > 0) != (d2 > 0)) & (d1 != 0) & (d2 != 0)
              & ((d3 > 0) != (d4 > 0)) & (d3 != 0) & (d4 != 0))
    touching = (((d1 == 0) & _on_span_batched(ax, ay, bx, by, cx, cy))
                | ((d2 == 0) & _on_span_batched(ax, ay, bx, by, dx, dy))
                | ((d3 == 0) & _on_span_batched(cx, cy, dx, dy, ax, ay))
                | ((d4 == 0) & _on_span_batched(cx, cy, dx, dy, bx, by)))
    return proper | touching


def _segments_segment_distance_batched(
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray,
    cx: np.ndarray, cy: np.ndarray, dx: np.ndarray, dy: np.ndarray,
) -> np.ndarray:
    """Row-wise :func:`segment_segment_distance`, bit-identical.

    The four endpoint distances are folded left-to-right exactly as the
    scalar ``min(...)`` evaluates; intersecting rows collapse to ``+0.0``
    like the scalar early return.
    """
    best = _points_segments_distance(ax, ay, cx, cy, dx, dy)
    best = np.minimum(best, _points_segments_distance(bx, by, cx, cy, dx, dy))
    best = np.minimum(best, _points_segments_distance(cx, cy, ax, ay, bx, by))
    best = np.minimum(best, _points_segments_distance(dx, dy, ax, ay, bx, by))
    inter = _segments_intersect_batched(ax, ay, bx, by, cx, cy, dx, dy)
    return np.where(inter, 0.0, best)


def segments_bbox_mindist_batched(
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray,
    x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray,
) -> np.ndarray:
    """Row-wise :func:`segment_bbox_mindist`, bit-identical to the scalar.

    One row per (segment, candidate box) pair: segment endpoint columns
    ``ax/ay/bx/by`` against closed-box columns ``x0/y0/x1/y1``
    (``min_x/min_y/max_x/max_y``).  This is the confirm step of the
    vectorised ``eps``-augmentation: CSR-packed candidate cell rectangles
    are verified against the exact Section 3.2.1 predicate in one call.

    Exactness: the scalar kernel's early ``return 0.0`` branches become
    ``where`` masks over the same operand values, the edge loop becomes a
    left-to-right ``minimum`` fold over the same four corner-ordered
    edges, and every distance bottoms out in :func:`_hypot_exact` — so
    each output element is bit-for-bit the scalar result.
    """
    ax = np.asarray(ax, dtype=np.float64)
    ay = np.asarray(ay, dtype=np.float64)
    bx = np.asarray(bx, dtype=np.float64)
    by = np.asarray(by, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    y1 = np.asarray(y1, dtype=np.float64)
    contains = (((x0 <= ax) & (ax <= x1) & (y0 <= ay) & (ay <= y1))
                | ((x0 <= bx) & (bx <= x1) & (y0 <= by) & (by <= y1)))
    # Corner order matches BBox.corners(): CCW from (min_x, min_y).
    edges = (
        (x0, y0, x1, y0),
        (x1, y0, x1, y1),
        (x1, y1, x0, y1),
        (x0, y1, x0, y0),
    )
    best: np.ndarray | None = None
    for ex0, ey0, ex1, ey1 in edges:
        d = _segments_segment_distance_batched(
            ax, ay, bx, by, ex0, ey0, ex1, ey1)
        best = d if best is None else np.minimum(best, d)
    return np.where(contains, 0.0, best)


def segment_bbox_mindist(
    ax: float, ay: float, bx: float, by: float, box: BBox
) -> float:
    """Minimum distance between segment ``a-b`` and a closed box.

    Zero when the segment touches or crosses the box or an endpoint lies
    inside it; otherwise the minimum distance to the four box edges.  This
    is the predicate behind the ``eps``-augmented maps ``Leps(c)`` and
    ``Ceps(l)`` of Section 3.2.1: a cell ``c`` can contain a POI within
    ``eps`` of segment ``l`` only if ``segment_bbox_mindist(l, c) <= eps``.
    """
    if box.contains_point(ax, ay) or box.contains_point(bx, by):
        return 0.0
    p0, p1, p2, p3 = box.corners()
    edges = ((p0, p1), (p1, p2), (p2, p3), (p3, p0))
    best = math.inf
    for (ex0, ey0), (ex1, ey1) in edges:
        d = segment_segment_distance(ax, ay, bx, by, ex0, ey0, ex1, ey1)
        if d <= 0.0:
            return 0.0
        if d < best:
            best = d
    return best
