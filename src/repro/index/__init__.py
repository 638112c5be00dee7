"""Spatio-textual indexing substrate.

Section 3.2.1 of the paper lists the data structures the SOI algorithm
needs; Section 4.2.1 adds the photo grid used by ST_Rel+Div.  This
subpackage implements them as the columns the queries read:

* :mod:`repro.index.grid` -- a uniform spatial grid over an extent;
* :mod:`repro.index.poi_grid` -- the POI index: each POI's grid cell,
  and per keyword the positions carrying it and the global inverted
  index's ``(cell, count)`` entries;
* :mod:`repro.index.cell_maps` -- cell-to-segment and segment-to-cell maps
  with query-time ``eps`` augmentation;
* :mod:`repro.index.photo_grid` -- the describe-stage photo grid with
  per-cell tag statistics (``psi_min`` / ``psi_max``).

All indexes are built offline (segments and POIs "are relatively static",
as the paper notes) and are read-only at query time.
"""

from repro.index.grid import UniformGrid
from repro.index.poi_grid import POIGridIndex
from repro.index.cell_maps import SegmentCellMaps
from repro.index.photo_grid import PhotoCell, PhotoGridIndex

__all__ = [
    "PhotoCell",
    "PhotoGridIndex",
    "POIGridIndex",
    "SegmentCellMaps",
    "UniformGrid",
]
