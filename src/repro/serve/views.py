"""Rebuild engine-shaped views over an attached :class:`IndexSnapshot`.

Attaching costs O(columns), not O(items).  Every numeric column
(coordinates, weights, lengths, CSR offset tables, keyword incidences)
stays a **zero-copy read-only view** into the shared-memory block.  What
attach builds, in exactly the element order the exporter recorded:

* the road network objects (vertices, segments, streets), which every
  mass kernel reads, and the segment id → position map;
* the POI index, by the :class:`~repro.index.poi_grid.POIGridIndex`
  constructor a fresh engine runs, over the attached POI columns;
* the per-``eps`` segment/cell CSRs and the store layout of every warmed
  ``eps`` (its columns and within-``eps`` POI incidence, not its
  per-cell groups).

Everything else is decoded on first use: a :class:`~repro.data.poi.POI`
or :class:`~repro.data.photo.Photo` on the first positional access to it
(Algorithm 1 never asks for one; a describe asks for the photos near its
street), the SL3 order on the first Algorithm 1 run, and a cell's
``L_eps(c)`` group on its first visit.  The resulting
:class:`~repro.core.soi.SOIEngine` returns bit-identical query results.

Reconstruction deliberately bypasses the constructors that re-run
geometry (``SegmentCellMaps`` cell tests, ``RoadNetwork.validate``): a
snapshot is only ever exported from an engine whose structures already
satisfied those invariants.
"""

from __future__ import annotations

import numpy as np

from repro.core.soi import SOIEngine
from repro.data.photo import PhotoSet
from repro.data.poi import POISet
from repro.data.table import KeywordColumns
from repro.geometry.bbox import BBox
from repro.index.cell_maps import (
    SegmentCellMaps,
    _AugmentCache,
    _AugmentedEps,
)
from repro.index.grid import UniformGrid
from repro.index.poi_grid import POIGridIndex
from repro.network.model import RoadNetwork, Segment, Street, Vertex
from repro.obs.tracer import trace_span
from repro.serve.snapshot import IndexSnapshot

__all__ = [
    "attach_cell_maps",
    "attach_engine",
    "attach_network",
    "attach_photo_set",
    "attach_pois",
]


def _keyword_columns(snapshot: IndexSnapshot, prefix: str) -> KeywordColumns:
    """The ``<prefix>_kw_*`` incidence CSR over its decoded vocabulary."""
    return KeywordColumns(snapshot.strings(f"{prefix}_vocab"),
                          snapshot.array(f"{prefix}_kw_offsets"),
                          snapshot.array(f"{prefix}_kw_values"))


@trace_span("snapshot.attach_pois")
def attach_pois(snapshot: IndexSnapshot) -> POISet:
    """The POI table over the snapshot columns; no :class:`POI` is built."""
    return POISet.from_columns(
        snapshot.array("poi_ids"), snapshot.array("poi_xs"),
        snapshot.array("poi_ys"), snapshot.array("poi_weights"),
        _keyword_columns(snapshot, "poi"))


@trace_span("snapshot.attach_photo_set")
def attach_photo_set(snapshot: IndexSnapshot) -> PhotoSet | None:
    """The photo table, or ``None`` if the snapshot was exported without one.

    Column-backed like the POI table: a describe decodes only the photos
    near its street.
    """
    if not snapshot.meta.get("has_photos"):
        return None
    return PhotoSet.from_columns(
        snapshot.array("photo_ids"), snapshot.array("photo_xs"),
        snapshot.array("photo_ys"), _keyword_columns(snapshot, "photo"))


@trace_span("snapshot.attach_network")
def attach_network(snapshot: IndexSnapshot) -> RoadNetwork:
    """The road network, with stored segment lengths (no recomputation).

    Columns convert with ``tolist()``, which yields the exact Python
    ints and floats the objects were exported from.
    """
    vertices = [
        Vertex(id=vid, x=x, y=y)
        for vid, x, y in zip(snapshot.array("vert_ids").tolist(),
                             snapshot.array("vert_xs").tolist(),
                             snapshot.array("vert_ys").tolist())
    ]
    seg_cols = [snapshot.array(name).tolist() for name in (
        "seg_ids", "seg_street", "seg_u", "seg_v",
        "seg_ax", "seg_ay", "seg_bx", "seg_by", "seg_length")]
    segments = [
        Segment(id=sid, street_id=street, u=u, v=v,
                ax=ax, ay=ay, bx=bx, by=by, length=length)
        for sid, street, u, v, ax, ay, bx, by, length in zip(*seg_cols)
    ]
    names = snapshot.strings("street_name")
    seg_offsets = snapshot.array("street_seg_offsets").tolist()
    seg_values = snapshot.array("street_seg_values").tolist()
    streets = [
        Street(id=sid, name=names[row],
               segment_ids=tuple(
                   seg_values[seg_offsets[row]:seg_offsets[row + 1]]))
        for row, sid in enumerate(snapshot.array("street_ids").tolist())
    ]
    return RoadNetwork(vertices, segments, streets, validate=False)


def _seeded_csr(
    snapshot: IndexSnapshot, offsets_name: str, cells_name: str
) -> _AugmentedEps:
    """A confirmed-pairs CSR view straight over the snapshot arrays."""
    offsets = snapshot.array(offsets_name)
    pairs = snapshot.array(cells_name)
    return _AugmentedEps(offsets, pairs[:, 0], pairs[:, 1],
                         np.diff(offsets))


@trace_span("snapshot.attach_cell_maps")
def attach_cell_maps(
    snapshot: IndexSnapshot, network: RoadNetwork, grid: UniformGrid
) -> SegmentCellMaps:
    """Segment/cell adjacency: base CSR plus every warmed ``eps`` CSR.

    The stored pair columns become the per-``eps`` CSR caches **zero-copy**
    (per-segment cell tuples materialise lazily on first access, in exactly
    the recorded element order), and the incremental distance cache — if
    the exporter carried one — is installed read-only, so attached workers
    never re-run the augmentation geometry for any ``eps`` at or below the
    cached one.  Queries beyond it grow the cache exactly like a fresh
    engine (growth replaces the arrays; the snapshot views are never
    written).
    """
    maps = SegmentCellMaps.__new__(SegmentCellMaps)
    maps.network = network
    maps.grid = grid
    seg_ids = snapshot.array("seg_ids")
    maps._n = int(seg_ids.shape[0])
    maps._seg_ids = seg_ids
    maps._seg_id_list = seg_ids.tolist()
    maps._seg_pos = {sid: pos
                     for pos, sid in enumerate(maps._seg_id_list)}
    maps._ax = snapshot.array("seg_ax")
    maps._ay = snapshot.array("seg_ay")
    maps._bx = snapshot.array("seg_bx")
    maps._by = snapshot.array("seg_by")
    maps._mbr_min_x = np.minimum(maps._ax, maps._bx)
    maps._mbr_min_y = np.minimum(maps._ay, maps._by)
    maps._mbr_max_x = np.maximum(maps._ax, maps._bx)
    maps._mbr_max_y = np.maximum(maps._ay, maps._by)
    maps._aug_csr = {0.0: _seeded_csr(snapshot, "scm_base_offsets",
                                      "scm_base_cells")}
    maps._seg_maps = {}
    for index, eps in enumerate(snapshot.meta.get("warm_eps", ())):
        maps._aug_csr[float(eps)] = _seeded_csr(
            snapshot, f"scm_aug{index}_offsets", f"scm_aug{index}_cells")
    maps._cache = None
    if snapshot.has_array("scm_cache_dist"):
        window = snapshot.array("scm_cache_window")
        offsets = snapshot.array("scm_cache_offsets")
        pairs = snapshot.array("scm_cache_cells")
        maps._cache = _AugmentCache(
            float(snapshot.meta["cache_eps"]),
            window[:, 0], window[:, 1], window[:, 2], window[:, 3],
            offsets,
            np.repeat(np.arange(maps._n, dtype=np.int64),
                      np.diff(offsets)),
            pairs[:, 0], pairs[:, 1],
            snapshot.array("scm_cache_dist"))
    return maps


@trace_span("snapshot.attach_engine")
def attach_engine(snapshot: IndexSnapshot) -> SOIEngine:
    """A full serving :class:`~repro.core.soi.SOIEngine` over the snapshot.

    The engine is wired through
    :meth:`~repro.core.soi.SOIEngine.from_prebuilt` and stamped with the
    snapshot's ``index_generation``, so server-side staleness checks
    compare like with like.
    """
    extent = BBox(*snapshot.meta["extent"])
    pois = attach_pois(snapshot)
    network = attach_network(snapshot)
    poi_index = POIGridIndex(pois, extent, float(snapshot.meta["cell_size"]))
    cell_maps = attach_cell_maps(snapshot, network, poi_index.grid)
    engine = SOIEngine.from_prebuilt(
        network, pois, poi_index, cell_maps, extent,
        index_generation=snapshot.generation)
    # Pre-build the store layout of every warmed eps and its
    # within-eps incidence: the CSR derives from the attached cell maps
    # (in the recorded element order), so the first query pays neither
    # the augmentation, the layout pass nor the distance kernel.
    for eps in snapshot.meta.get("warm_eps", ()):
        engine.store_layout(float(eps)).poi_incidence(poi_index)
    return engine
