"""The describe-stage photo index of Section 4.2.1.

A spatial grid whose cells have side length ``rho / 2`` (so that any photo
in a cell spatially covers every other photo in the same cell, and can only
cover photos at most two cells away — the geometry behind the Equation
11-12 bounds).  Each cell carries:

* the list of photos in the cell (``c.R``),
* a local inverted index over the photos' tags (``c.I``),
* the minimum and maximum tag-set size among its photos
  (``c.psi_min`` / ``c.psi_max``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.data.photo import PhotoSet
from repro.errors import GridIndexError
from repro.geometry.bbox import BBox
from repro.geometry.distance import point_bbox_mindist
from repro.index.grid import CellCoord, UniformGrid, bucket_points
from repro.index.inverted import CellInvertedIndex

#: Relative slack on ``rho`` for the ring-3 reachability guard of
#: :meth:`PhotoGridIndex.spatial_reach_count` — generous against the
#: ~1e-12 relative error of floating-point cell assignment.
_REACH_RTOL = 1e-9


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
    inverted:
        Local inverted index over the cell's photo tags (``c.I``).
    psi_min, psi_max:
        Minimum / maximum number of tags of any photo in the cell.
    """

    coord: CellCoord
    positions: tuple[int, ...]
    inverted: CellInvertedIndex
    psi_min: int
    psi_max: int

    @property
    def keywords(self) -> frozenset[str]:
        """``c.Psi``: all tags present in the cell."""
        return self.inverted.keywords

    def __len__(self) -> int:
        return len(self.positions)


class PhotoGridIndex:
    """Grid of :class:`PhotoCell` over a photo set.

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
    """

    def __init__(self, photos: PhotoSet, extent: BBox, rho: float) -> None:
        if rho <= 0:
            raise GridIndexError(f"rho must be positive, got {rho}")
        self.photos = photos
        self.rho = float(rho)
        self.grid = UniformGrid(extent, rho / 2.0)
        per_cell: dict[CellCoord, list[int]] = {
            coord: positions.tolist()
            for coord, positions in bucket_points(
                self.grid, photos.xs, photos.ys).items()}
        self._cells: dict[CellCoord, PhotoCell] = {}
        for coord, positions in per_cell.items():
            sizes = [len(photos[pos].keywords) for pos in positions]
            inverted = CellInvertedIndex(
                (pos, photos[pos].keywords) for pos in positions)
            self._cells[coord] = PhotoCell(
                coord=coord,
                positions=tuple(positions),
                inverted=inverted,
                psi_min=min(sizes),
                psi_max=max(sizes),
            )

    # -- access -----------------------------------------------------------

    def cells(self) -> Iterator[PhotoCell]:
        """All occupied cells, in deterministic (coordinate) order."""
        for coord in sorted(self._cells):
            yield self._cells[coord]

    def cell(self, coord: CellCoord) -> PhotoCell | None:
        return self._cells.get(coord)

    def cell_bbox(self, coord: CellCoord) -> BBox:
        return self.grid.cell_bbox(coord)

    def neighborhood_count(self, coord: CellCoord, radius: int = 2) -> int:
        """Total photos in cells within Chebyshev distance ``radius``.

        With the default ``radius=2`` this is the numerator of the spatial
        relevance upper bound (Equation 12).
        """
        total = 0
        for neighbor in self.grid.neighborhood(coord, radius):
            cell = self._cells.get(neighbor)
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
        total = self.neighborhood_count(coord, radius=2)
        box = self.grid.cell_bbox(coord)
        limit = self.rho * (1.0 + _REACH_RTOL)
        i, j = coord
        xs, ys = self.photos.xs, self.photos.ys
        for di in range(-3, 4):
            for dj in range(-3, 4):
                if max(abs(di), abs(dj)) != 3:
                    continue
                cell = self._cells.get((i + di, j + dj))
                if cell is None:
                    continue
                for pos in cell.positions:
                    if point_bbox_mindist(float(xs[pos]), float(ys[pos]),
                                          box) <= limit:
                        total += 1
        return total

    @property
    def num_occupied_cells(self) -> int:
        return len(self._cells)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PhotoGridIndex(photos={len(self.photos)}, "
                f"occupied_cells={len(self._cells)}, rho={self.rho})")
