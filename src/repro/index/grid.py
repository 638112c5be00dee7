"""A uniform spatial grid.

Both the POI index of Section 3.2.1 ("a spatial grid index with arbitrary
cell size") and the photo index of Section 4.2.1 (cell side ``rho / 2``)
are built on this grid.  Cells are addressed by integer coordinates
``(i, j)``; the grid covers a fixed extent and clamps out-of-extent points
to the border cells so that slightly-outside data (a POI a metre beyond the
network MBR) still lands in a cell.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.errors import GridIndexError
from repro.geometry.bbox import BBox
from repro.index.csr import first_appearance_groups

CellCoord = tuple[int, int]

_ROUNDING_RTOL = 1e-12
"""Size of :attr:`UniformGrid.rounding_slack` relative to the grid's
coordinate magnitude: thousands of ulps, against the few by which a cell
assignment and that cell's rectangle can disagree."""


def bucket_points(
    grid: "UniformGrid", xs: np.ndarray, ys: np.ndarray
) -> dict[CellCoord, np.ndarray]:
    """Group point positions by containing cell, vectorised.

    Returns ``{cell: positions}`` with cells in first-appearance
    (position) order and positions ascending within each cell — exactly
    the dictionary a per-point ``defaultdict(list)`` loop over
    :meth:`UniformGrid.cell_of` builds, via one batched cell assignment
    and one stable argsort.
    """
    i, j = grid.cells_of_batched(xs, ys)
    lin = i * np.int64(grid.ny) + j
    order, starts, ends, keys = first_appearance_groups(lin)
    ny = grid.ny
    out: dict[CellCoord, np.ndarray] = {}
    for g in range(keys.shape[0]):
        key = int(keys[g])
        out[(key // ny, key % ny)] = order[starts[g]:ends[g]].astype(np.intp)
    return out


class UniformGrid:
    """A uniform grid of square cells over a rectangular extent.

    Parameters
    ----------
    extent:
        The rectangle to cover.  The grid always covers it entirely; the
        last row/column may extend beyond ``extent.max_x`` / ``max_y``.
    cell_size:
        Side length of each (square) cell.  Must be positive.
    """

    def __init__(self, extent: BBox, cell_size: float) -> None:
        if cell_size <= 0:
            raise GridIndexError(f"cell_size must be positive, got {cell_size}")
        self.extent = extent
        self.cell_size = float(cell_size)
        self.nx = max(1, math.ceil(extent.width / cell_size))
        self.ny = max(1, math.ceil(extent.height / cell_size))
        # cell_of rounds the offset quotient and cell_bbox rounds
        # min + i * size, so a point can lie a few ulps outside the
        # rectangle of the cell it is assigned to.  Predicates that must
        # cover every point of a cell widen their threshold by this.
        self.rounding_slack = _ROUNDING_RTOL * (
            max(abs(extent.min_x), abs(extent.min_y))
            + max(self.nx, self.ny) * self.cell_size)

    # -- addressing -------------------------------------------------------

    def cell_of(self, x: float, y: float) -> CellCoord:
        """The cell containing ``(x, y)``, clamped to the grid."""
        i = int((x - self.extent.min_x) // self.cell_size)
        j = int((y - self.extent.min_y) // self.cell_size)
        return (min(max(i, 0), self.nx - 1), min(max(j, 0), self.ny - 1))

    def cells_of_batched(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`cell_of`: clamped cell indices for point columns.

        Returns ``(i, j)`` int64 arrays.  The floor-divide is applied in
        the float domain and clamped *before* the integer cast (NumPy's
        ``floor_divide`` matches Python's float ``//`` semantics, and
        clamping first keeps out-of-range magnitudes from overflowing the
        cast), so each element equals the scalar :meth:`cell_of` result.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        fi = np.floor_divide(xs - self.extent.min_x, self.cell_size)
        fj = np.floor_divide(ys - self.extent.min_y, self.cell_size)
        i = np.clip(fi, 0.0, float(self.nx - 1)).astype(np.int64)
        j = np.clip(fj, 0.0, float(self.ny - 1)).astype(np.int64)
        return i, j

    def cell_bbox(self, cell: CellCoord) -> BBox:
        """The rectangle of a cell.

        Raises :class:`~repro.errors.GridIndexError` for coordinates outside
        the grid.
        """
        i, j = cell
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise GridIndexError(f"cell {cell} outside grid "
                              f"({self.nx} x {self.ny})")
        x0 = self.extent.min_x + i * self.cell_size
        y0 = self.extent.min_y + j * self.cell_size
        return BBox(x0, y0, x0 + self.cell_size, y0 + self.cell_size)

    # -- iteration ----------------------------------------------------------

    def cells_in_bbox(self, box: BBox) -> Iterator[CellCoord]:
        """All cells whose rectangle intersects ``box`` (clamped to grid)."""
        i0, j0 = self.cell_of(box.min_x, box.min_y)
        i1, j1 = self.cell_of(box.max_x, box.max_y)
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                yield (i, j)

    def neighborhood(self, cell: CellCoord, radius: int) -> Iterator[CellCoord]:
        """Cells within Chebyshev distance ``radius`` of ``cell`` (clamped).

        The spatial-relevance upper bound of Equation 12 sums photo counts
        over all cells "no more than two cells away"; this iterator with
        ``radius=2`` is exactly that neighbourhood.
        """
        i, j = cell
        for di in range(-radius, radius + 1):
            ii = i + di
            if not 0 <= ii < self.nx:
                continue
            for dj in range(-radius, radius + 1):
                jj = j + dj
                if 0 <= jj < self.ny:
                    yield (ii, jj)

    @property
    def num_cells(self) -> int:
        return self.nx * self.ny

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"UniformGrid({self.nx} x {self.ny}, "
                f"cell_size={self.cell_size})")
