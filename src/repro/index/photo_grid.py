"""The describe-stage photo index of Section 4.2.1.

A spatial grid whose cells have side length ``rho / 2`` (so that any photo
in a cell spatially covers every other photo in the same cell, and can only
cover photos at most two cells away — the geometry behind the Equation
11-12 bounds).  Each cell carries:

* the list of photos in the cell (``c.R``),
* the set of tags its photos carry (``c.Psi``),
* the minimum and maximum tag-set size among its photos
  (``c.psi_min`` / ``c.psi_max``).

The index is a set of per-cell columns in *slot* order (occupied cells by
ascending coordinate), built by one cell assignment and one stable sort:
members, sizes, ``psi_min``/``psi_max``, rectangles and every photo's slot.
:meth:`PhotoGridIndex.spatial_reach_counts` computes the Equation 12
numerator of every cell in one pass.  :class:`PhotoCell` objects, with
their tag sets, are decoded from the photos on first use; they and the
per-cell :meth:`~PhotoGridIndex.spatial_reach_count` are the
scalar reference the runtime contracts and the tests check the columns
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.data.photo import PhotoSet
from repro.errors import GridIndexError
from repro.geometry.bbox import BBox
from repro.geometry.distance import _hypot_exact, point_bbox_mindist
from repro.index.grid import CellCoord, UniformGrid

#: Relative slack on ``rho`` for the ring-3 reachability guard of
#: :meth:`PhotoGridIndex.spatial_reach_count` — generous against the
#: ~1e-12 relative error of floating-point cell assignment.
_REACH_RTOL = 1e-9

_REACH_BLOCK = 32768
"""Most (cell, neighbour) probes one block of the Equation 12 pass holds."""

_DI, _DJ = (offset.ravel() for offset in np.meshgrid(
    np.arange(-3, 4), np.arange(-3, 4), indexing="ij"))
_RING = np.maximum(np.abs(_DI), np.abs(_DJ))
"""The 49 neighbour offsets within Chebyshev distance 3, and their ring."""


@dataclass(frozen=True, slots=True)
class PhotoCell:
    """One occupied cell of the photo grid.

    Attributes
    ----------
    coord:
        Grid coordinates of the cell.
    positions:
        Photo positions (into the indexed :class:`~repro.data.photo.PhotoSet`)
        of the cell's photos, in insertion order (``c.R``).
    keywords:
        ``c.Psi``: every tag carried by a photo of the cell.
    psi_min, psi_max:
        Minimum / maximum number of tags of any photo in the cell.
    """

    coord: CellCoord
    positions: tuple[int, ...]
    keywords: frozenset[str]
    psi_min: int
    psi_max: int

    def __len__(self) -> int:
        return len(self.positions)


class PhotoGridIndex:
    """Grid of occupied photo cells over a photo set, as slot columns.

    Parameters
    ----------
    photos:
        The photo collection to index (typically the photos ``R_s``
        associated with one street).
    extent:
        Grid extent; normally the street MBR buffered by ``eps``.
    rho:
        The neighbourhood radius of Definition 4.  The grid cell side is
        ``rho / 2``, as Section 4.2.1 prescribes.

    Attributes
    ----------
    coords:
        Coordinates of the occupied cells, ascending: slot ``c`` is
        ``coords[c]``.
    cell_positions:
        Per slot, the cell's photo positions, ascending.
    sizes, psi_min, psi_max:
        Per slot: photo count and smallest / largest tag-set size.
    box_x0, box_y0, box_x1, box_y1:
        Per slot: the cell rectangle, as :meth:`UniformGrid.cell_bbox`
        rounds it.
    photo_slot:
        Per photo position: the slot of its cell.
    """

    def __init__(self, photos: PhotoSet, extent: BBox, rho: float) -> None:
        if rho <= 0:
            raise GridIndexError(f"rho must be positive, got {rho}")
        self.photos = photos
        self.rho = float(rho)
        self.grid = UniformGrid(extent, rho / 2.0)
        i, j = self.grid.cells_of_batched(photos.xs, photos.ys)
        keys = i * np.int64(self.grid.ny) + j
        self._order = np.argsort(keys, kind="stable")
        self._keys, self._starts, sizes = np.unique(
            keys[self._order], return_index=True, return_counts=True)
        slots = self._keys.shape[0]
        self.sizes = sizes
        cell_i = self._keys // self.grid.ny
        cell_j = self._keys % self.grid.ny
        self.coords: list[CellCoord] = list(zip(cell_i.tolist(),
                                                cell_j.tolist()))
        order = self._order.tolist()
        bounds = self._starts.tolist() + [len(order)]
        self.cell_positions: list[tuple[int, ...]] = [
            tuple(order[bounds[slot]:bounds[slot + 1]])
            for slot in range(slots)]
        self.photo_slot = np.empty(len(photos), dtype=np.int64)
        self.photo_slot[self._order] = np.repeat(np.arange(slots), sizes)
        tag_counts = np.diff(photos.keyword_columns().offsets)[self._order]
        if slots:
            self.psi_min = np.minimum.reduceat(tag_counts, self._starts)
            self.psi_max = np.maximum.reduceat(tag_counts, self._starts)
        else:
            self.psi_min = self.psi_max = np.zeros(0, dtype=np.int64)
        size = self.grid.cell_size
        self.box_x0 = extent.min_x + cell_i.astype(np.float64) * size
        self.box_y0 = extent.min_y + cell_j.astype(np.float64) * size
        self.box_x1 = self.box_x0 + size
        self.box_y1 = self.box_y0 + size
        self._cells: dict[CellCoord, PhotoCell] | None = None

    # -- the Equation 12 pass ---------------------------------------------

    def spatial_reach_counts(self) -> np.ndarray:
        """:meth:`spatial_reach_count` of every slot, in one pass.

        Per block of slots, each of the 49 neighbour offsets within
        Chebyshev distance 3 is looked up among the occupied cells' keys.
        Rings 0-2 add their cells' sizes; the photos of ring-3 cells count
        when their :func:`point_bbox_mindist` to the slot's rectangle,
        rounded as ``math.hypot`` rounds it, is within
        ``rho * (1 + _REACH_RTOL)``.
        """
        slots = self._keys.shape[0]
        counts = np.zeros(slots, dtype=np.int64)
        nx, ny = self.grid.nx, self.grid.ny
        limit = self.rho * (1.0 + _REACH_RTOL)
        xs, ys = self.photos.xs, self.photos.ys
        step = max(1, _REACH_BLOCK // _DI.shape[0])
        for begin in range(0, slots, step):
            cells = np.arange(begin, min(slots, begin + step))
            ni = (self._keys[cells] // ny)[:, None] + _DI
            nj = (self._keys[cells] % ny)[:, None] + _DJ
            keys = ni * ny + nj
            at = np.minimum(np.searchsorted(self._keys, keys), slots - 1)
            found = ((ni >= 0) & (ni < nx) & (nj >= 0) & (nj < ny)
                     & (self._keys[at] == keys))
            counts[cells] = np.where(found & (_RING <= 2),
                                     self.sizes[at], 0).sum(axis=1)
            row, col = np.nonzero(found & (_RING == 3))
            cell, neighbour = cells[row], at[row, col]
            members = self.sizes[neighbour]
            cell = np.repeat(cell, members)
            first = np.cumsum(members) - members
            photo = self._order[
                np.repeat(self._starts[neighbour] - first, members)
                + np.arange(cell.shape[0])]
            px, py = xs[photo], ys[photo]
            dx = np.maximum(np.maximum(self.box_x0[cell] - px, 0.0),
                            px - self.box_x1[cell])
            dy = np.maximum(np.maximum(self.box_y0[cell] - py, 0.0),
                            py - self.box_y1[cell])
            counts += np.bincount(cell[_hypot_exact(dx, dy) <= limit],
                                  minlength=slots)
        return counts

    # -- the scalar reference --------------------------------------------

    def _cell_map(self) -> dict[CellCoord, PhotoCell]:
        """The occupied cells as :class:`PhotoCell` objects, decoded from
        the photos on first use."""
        if self._cells is None:
            photos = self.photos
            cells: dict[CellCoord, PhotoCell] = {}
            for coord, positions in zip(self.coords, self.cell_positions):
                tags = [photos[pos].keywords for pos in positions]
                cells[coord] = PhotoCell(
                    coord=coord,
                    positions=positions,
                    keywords=frozenset().union(*tags),
                    psi_min=min(map(len, tags)),
                    psi_max=max(map(len, tags)),
                )
            self._cells = cells
        return self._cells

    def cells(self) -> Iterator[PhotoCell]:
        """All occupied cells, in deterministic (coordinate, i.e. slot)
        order."""
        cells = self._cell_map()
        for coord in self.coords:
            yield cells[coord]

    def cell(self, coord: CellCoord) -> PhotoCell | None:
        return self._cell_map().get(coord)

    def cell_bbox(self, coord: CellCoord) -> BBox:
        return self.grid.cell_bbox(coord)

    def neighborhood_count(self, coord: CellCoord, radius: int = 2) -> int:
        """Total photos in cells within Chebyshev distance ``radius``.

        With the default ``radius=2`` this is the numerator of the spatial
        relevance upper bound (Equation 12).
        """
        cells = self._cell_map()
        total = 0
        for neighbor in self.grid.neighborhood(coord, radius):
            cell = cells.get(neighbor)
            if cell is not None:
                total += len(cell)
        return total

    def spatial_reach_count(self, coord: CellCoord) -> int:
        """Photos that could lie within ``rho`` of a photo in ``coord``.

        The numerator of the spatial relevance upper bound (Equation 12).
        With cell side ``rho / 2`` every such photo sits within Chebyshev
        distance 2 in exact arithmetic — but floating-point cell
        assignment can push a photo lying exactly on a cell boundary at
        distance exactly ``rho`` one ring further out (two quotients
        rounding across an integer in opposite directions).  Photos of the
        third ring are therefore also counted when they are still within
        ``rho`` of this cell's rectangle, which keeps the bound valid at
        the boundary without loosening it anywhere else.
        """
        cells = self._cell_map()
        total = self.neighborhood_count(coord, radius=2)
        box = self.grid.cell_bbox(coord)
        limit = self.rho * (1.0 + _REACH_RTOL)
        i, j = coord
        xs, ys = self.photos.xs, self.photos.ys
        for di in range(-3, 4):
            for dj in range(-3, 4):
                if max(abs(di), abs(dj)) != 3:
                    continue
                cell = cells.get((i + di, j + dj))
                if cell is None:
                    continue
                for pos in cell.positions:
                    if point_bbox_mindist(float(xs[pos]), float(ys[pos]),
                                          box) <= limit:
                        total += 1
        return total

    @property
    def num_occupied_cells(self) -> int:
        return len(self.coords)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PhotoGridIndex(photos={len(self.photos)}, "
                f"occupied_cells={len(self.coords)}, rho={self.rho})")
