"""Rebuild engine-shaped views over an attached :class:`IndexSnapshot`.

The snapshot stores two kinds of state: large numeric columns (coordinates,
weights, lengths, CSR offset tables) and small Python-level dictionaries
(id → position maps, the occupied-cell directory, segment/cell adjacency).
Attaching keeps the former as **zero-copy read-only views** into the
shared-memory block and reconstitutes only the latter, in exactly the
element order the exporter recorded — so every rebuilt dictionary iterates
key-for-key like the original and the resulting
:class:`~repro.core.soi.SOIEngine` returns bit-identical query results.

Reconstruction deliberately bypasses the heavy constructors
(``POIGridIndex`` re-binning, ``SegmentCellMaps`` geometry tests,
``RoadNetwork.validate``): a snapshot is only ever exported from an engine
whose structures already satisfied those invariants.
"""

from __future__ import annotations

import numpy as np

from repro.core.soi import SOIEngine
from repro.data.photo import Photo, PhotoSet
from repro.data.poi import POI, POISet
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
    "attach_poi_index",
    "attach_pois",
]


def _keyword_sets(
    snapshot: IndexSnapshot, prefix: str
) -> list[frozenset[str]]:
    """Per-item keyword sets from a ``<prefix>_kw_*`` CSR + vocabulary."""
    vocabulary = snapshot.strings(f"{prefix}_vocab")
    offsets = snapshot.array(f"{prefix}_kw_offsets")
    values = snapshot.array(f"{prefix}_kw_values")
    return [
        frozenset(vocabulary[kid]
                  for kid in values[offsets[pos]:offsets[pos + 1]])
        for pos in range(len(offsets) - 1)
    ]


@trace_span("snapshot.attach_pois")
def attach_pois(snapshot: IndexSnapshot) -> POISet:
    """The POI table; coordinate/weight columns stay in shared memory."""
    ids = snapshot.array("poi_ids")
    xs = snapshot.array("poi_xs")
    ys = snapshot.array("poi_ys")
    weights = snapshot.array("poi_weights")
    keyword_sets = _keyword_sets(snapshot, "poi")
    items = tuple(
        POI(id=int(ids[pos]), x=float(xs[pos]), y=float(ys[pos]),
            keywords=keyword_sets[pos], weight=float(weights[pos]))
        for pos in range(len(ids)))
    pois = POISet.__new__(POISet)
    pois._items = items
    pois._position = {poi.id: pos for pos, poi in enumerate(items)}
    pois.xs = xs
    pois.ys = ys
    pois.weights = weights
    return pois


@trace_span("snapshot.attach_photo_set")
def attach_photo_set(snapshot: IndexSnapshot) -> PhotoSet | None:
    """The photo table, or ``None`` if the snapshot was exported without one."""
    if not snapshot.meta.get("has_photos"):
        return None
    ids = snapshot.array("photo_ids")
    xs = snapshot.array("photo_xs")
    ys = snapshot.array("photo_ys")
    keyword_sets = _keyword_sets(snapshot, "photo")
    items = tuple(
        Photo(id=int(ids[pos]), x=float(xs[pos]), y=float(ys[pos]),
              keywords=keyword_sets[pos])
        for pos in range(len(ids)))
    photos = PhotoSet.__new__(PhotoSet)
    photos._items = items
    photos._position = {photo.id: pos for pos, photo in enumerate(items)}
    photos.xs = xs
    photos.ys = ys
    return photos


@trace_span("snapshot.attach_network")
def attach_network(snapshot: IndexSnapshot) -> RoadNetwork:
    """The road network, with stored segment lengths (no recomputation)."""
    vertices = [
        Vertex(id=int(vid), x=float(x), y=float(y))
        for vid, x, y in zip(snapshot.array("vert_ids"),
                             snapshot.array("vert_xs"),
                             snapshot.array("vert_ys"))
    ]
    seg_cols = [snapshot.array(name) for name in (
        "seg_ids", "seg_street", "seg_u", "seg_v",
        "seg_ax", "seg_ay", "seg_bx", "seg_by", "seg_length")]
    segments = [
        Segment(id=int(sid), street_id=int(street), u=int(u), v=int(v),
                ax=float(ax), ay=float(ay), bx=float(bx), by=float(by),
                length=float(length))
        for sid, street, u, v, ax, ay, bx, by, length in zip(*seg_cols)
    ]
    names = snapshot.strings("street_name")
    seg_offsets = snapshot.array("street_seg_offsets")
    seg_values = snapshot.array("street_seg_values")
    streets = [
        Street(id=int(sid), name=names[row],
               segment_ids=tuple(
                   int(v) for v in
                   seg_values[seg_offsets[row]:seg_offsets[row + 1]]))
        for row, sid in enumerate(snapshot.array("street_ids"))
    ]
    return RoadNetwork(vertices, segments, streets, validate=False)


@trace_span("snapshot.attach_poi_index")
def attach_poi_index(
    snapshot: IndexSnapshot, pois: POISet, extent: BBox
) -> POIGridIndex:
    """The POI grid index: stored cell directory + rebuilt inverted indexes."""
    index = POIGridIndex.__new__(POIGridIndex)
    index.pois = pois
    index.grid = UniformGrid(extent, float(snapshot.meta["cell_size"]))
    cells = [(int(i), int(j)) for i, j in snapshot.array("pcell_ij")]
    offsets = snapshot.array("pcell_poi_offsets")
    values = snapshot.array("pcell_poi_values")
    index._cell_positions = {
        cell: np.asarray(values[offsets[row]:offsets[row + 1]],
                         dtype=np.intp)  # zero-copy on 64-bit platforms
        for row, cell in enumerate(cells)}
    # Local inverted indexes materialise lazily, exactly as on a freshly
    # built index: each worker only pays for the cells its queries touch.
    index._cell_index = {}
    index.global_index = index._build_global_index_batched()
    return index


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
    maps._seg_id_list = [int(sid) for sid in seg_ids]
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
def attach_engine(
    snapshot: IndexSnapshot, session_pool_size: int | None = None
) -> SOIEngine:
    """A full serving :class:`~repro.core.soi.SOIEngine` over the snapshot.

    The engine is wired through
    :meth:`~repro.core.soi.SOIEngine.from_prebuilt` and stamped with the
    snapshot's ``index_generation``, so server-side staleness checks
    compare like with like.
    """
    extent = BBox(*snapshot.meta["extent"])
    pois = attach_pois(snapshot)
    network = attach_network(snapshot)
    poi_index = attach_poi_index(snapshot, pois, extent)
    cell_maps = attach_cell_maps(snapshot, network, poi_index.grid)
    sl3_entries = tuple(
        (int(sid), float(length))
        for sid, length in zip(snapshot.array("sl3_ids"),
                               snapshot.array("sl3_lengths")))
    engine = SOIEngine.from_prebuilt(
        network, pois, poi_index, cell_maps, extent, sl3_entries,
        index_generation=snapshot.generation,
        session_pool_size=session_pool_size)
    # Pre-build the store layout of every warmed eps: the CSR derives
    # from the attached cell maps (in the recorded element order), so the
    # first query pays neither the augmentation nor the layout pass.
    for eps in snapshot.meta.get("warm_eps", ()):
        engine.store_layout(float(eps))
    return engine
