"""Columnar, shared-memory snapshots of the built SOI indexes.

An :class:`IndexSnapshot` flattens everything a serving worker needs —
the road network, the POI table with its keyword sets (from which the
worker builds its :class:`~repro.index.poi_grid.POIGridIndex`), the photo
table with its tag sets and the base/``eps``-augmented adjacency of
:class:`~repro.index.cell_maps.SegmentCellMaps` — into a
structure-of-arrays layout inside **one**
:class:`multiprocessing.shared_memory.SharedMemory` block:

* numeric attributes become contiguous ``float64``/``int64`` columns;
* variable-length relations (segment → cells, street → segments,
  item → keywords) become CSR-style ``offsets`` + ``values`` array
  pairs;
* strings (keywords, tags, street names) are interned into sorted id
  tables stored as a UTF-8 blob plus an offsets column.

The block layout is: an 8-byte little-endian header length, a JSON header
(schema version, generation counter, scalar metadata, and the name /
dtype / shape / offset directory of every array), then the 64-byte-aligned
array payloads.  Attaching (:meth:`IndexSnapshot.attach`) maps the block
and exposes each array as a **read-only, zero-copy** NumPy view; no part
of the original object graph is pickled.

Element orders are preserved exactly (segments, streets and CSR value
runs are stored in the source structures' iteration order),
so the views rebuilt by :mod:`repro.serve.views` reproduce the original
dictionaries key-for-key — a prerequisite for the serving layer's
bit-identical-results guarantee.
"""

from __future__ import annotations

import json
import secrets
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import SnapshotError
from repro.obs.tracer import trace_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.soi import SOIEngine
    from repro.data.photo import PhotoSet

SNAPSHOT_SCHEMA = 3
"""Bumped whenever the block layout changes; attach refuses mismatches.

Schema 2 added the incremental augmentation distance cache
(``scm_cache_*`` arrays plus the ``cache_eps`` meta field), so attached
workers inherit the exporter's confirmed per-(segment, cell) distances
instead of re-running the augmentation geometry.  Schema 3 drops the POI
grid's per-cell position lists and the SL3 order: a worker builds its POI
index from the POI columns, and its first Algorithm 1 run sorts SL3."""

_ALIGN = 64
_MAGIC = "repro-index-snapshot"


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _pack_strings(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """A string table as ``(utf8 blob, offsets)`` arrays."""
    encoded = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    for pos, raw in enumerate(encoded):
        offsets[pos + 1] = offsets[pos] + len(raw)
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8).copy() \
        if encoded else np.zeros(0, dtype=np.uint8)
    return blob, offsets


def unpack_strings(blob: np.ndarray, offsets: np.ndarray) -> list[str]:
    """Inverse of the string-table packing."""
    raw = blob.tobytes()
    return [raw[offsets[pos]:offsets[pos + 1]].decode("utf-8")
            for pos in range(len(offsets) - 1)]


def _pack_csr(
    runs: Iterable[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Variable-length integer runs as ``(offsets, values)`` arrays."""
    offsets = [0]
    values: list[int] = []
    for run in runs:
        values.extend(run)
        offsets.append(len(values))
    return (np.asarray(offsets, dtype=np.int64),
            np.asarray(values, dtype=np.int64))


def build_arrays(
    engine: "SOIEngine",
    photos: "PhotoSet | None" = None,
    warm_eps: Sequence[float] = (),
) -> tuple[dict, dict[str, np.ndarray]]:
    """Flatten a built engine (and optional photo set) into columns.

    ``warm_eps`` lists the ``eps`` values whose augmented cell maps are
    materialised into the snapshot; workers serve other ``eps`` values
    too, recomputing the augmentation on first use exactly as the source
    engine would.
    """
    network = engine.network
    pois = engine.pois
    arrays: dict[str, np.ndarray] = {}

    # -- network ----------------------------------------------------------
    vertices = list(network.vertices.values())
    arrays["vert_ids"] = np.asarray([v.id for v in vertices], dtype=np.int64)
    arrays["vert_xs"] = np.asarray([v.x for v in vertices], dtype=np.float64)
    arrays["vert_ys"] = np.asarray([v.y for v in vertices], dtype=np.float64)

    segments = list(network.iter_segments())
    arrays["seg_ids"] = np.asarray([s.id for s in segments], dtype=np.int64)
    arrays["seg_street"] = np.asarray([s.street_id for s in segments],
                                      dtype=np.int64)
    arrays["seg_u"] = np.asarray([s.u for s in segments], dtype=np.int64)
    arrays["seg_v"] = np.asarray([s.v for s in segments], dtype=np.int64)
    for field in ("ax", "ay", "bx", "by", "length"):
        arrays[f"seg_{field}"] = np.asarray(
            [getattr(s, field) for s in segments], dtype=np.float64)

    streets = list(network.streets.values())
    arrays["street_ids"] = np.asarray([s.id for s in streets],
                                      dtype=np.int64)
    arrays["street_name_blob"], arrays["street_name_offsets"] = \
        _pack_strings([s.name for s in streets])
    arrays["street_seg_offsets"], arrays["street_seg_values"] = \
        _pack_csr([s.segment_ids for s in streets])

    # -- POI table --------------------------------------------------------
    arrays["poi_ids"] = np.asarray(pois.ids, dtype=np.int64)
    arrays["poi_xs"] = np.asarray(pois.xs, dtype=np.float64)
    arrays["poi_ys"] = np.asarray(pois.ys, dtype=np.float64)
    arrays["poi_weights"] = np.asarray(pois.weights, dtype=np.float64)
    # The incidence columns the POI grid index was built from.
    poi_vocab, arrays["poi_kw_offsets"], arrays["poi_kw_values"] = \
        pois.keyword_columns()
    arrays["poi_vocab_blob"], arrays["poi_vocab_offsets"] = \
        _pack_strings(poi_vocab)

    # -- segment/cell maps ------------------------------------------------
    cell_maps = engine.cell_maps

    def _cell_csr_arrays(eps: float) -> tuple[np.ndarray, np.ndarray]:
        offsets, flat_i, flat_j = cell_maps.augmented_csr(eps)
        pairs = (np.stack([flat_i, flat_j], axis=1)
                 if flat_i.shape[0] else np.zeros((0, 2), dtype=np.int64))
        return (np.asarray(offsets, dtype=np.int64),
                pairs.astype(np.int64, copy=False))

    arrays["scm_base_offsets"], arrays["scm_base_cells"] = \
        _cell_csr_arrays(0.0)
    eps_values: list[float] = []
    for index, eps in enumerate(warm_eps):
        if eps in eps_values:
            continue
        offs, vals = _cell_csr_arrays(float(eps))
        arrays[f"scm_aug{index}_offsets"] = offs
        arrays[f"scm_aug{index}_cells"] = vals
        eps_values.append(float(eps))
        # Warm the source engine's store layout too: for_engine servers
        # verify payloads against the source, and the layout derives from
        # exactly the maps serialised above.  Its within-eps incidence
        # stays unbuilt: the source's first query at this eps builds it,
        # and building it here would add to every server's set-up.
        engine.store_layout(float(eps))

    # -- incremental augmentation distance cache --------------------------
    cache = cell_maps.cached_distance_columns()
    cache_eps = None
    if cache is not None:
        arrays["scm_cache_window"] = np.stack(
            [cache.i0, cache.j0, cache.i1, cache.j1], axis=1)
        arrays["scm_cache_offsets"] = np.asarray(cache.offsets,
                                                 dtype=np.int64)
        arrays["scm_cache_cells"] = (
            np.stack([cache.ii, cache.jj], axis=1)
            if cache.ii.shape[0] else np.zeros((0, 2), dtype=np.int64))
        arrays["scm_cache_dist"] = np.asarray(cache.dist,
                                              dtype=np.float64)
        cache_eps = float(cache.eps)

    # -- photo table (describe stage) --------------------------------------
    if photos is not None:
        arrays["photo_ids"] = np.asarray(photos.ids, dtype=np.int64)
        arrays["photo_xs"] = np.asarray(photos.xs, dtype=np.float64)
        arrays["photo_ys"] = np.asarray(photos.ys, dtype=np.float64)
        tag_vocab, arrays["photo_kw_offsets"], arrays["photo_kw_values"] = \
            photos.keyword_columns()
        arrays["photo_vocab_blob"], arrays["photo_vocab_offsets"] = \
            _pack_strings(tag_vocab)

    extent = engine.extent
    meta = {
        "magic": _MAGIC,
        "generation": engine.index_generation,
        "extent": [extent.min_x, extent.min_y, extent.max_x, extent.max_y],
        "cell_size": engine.poi_index.grid.cell_size,
        "warm_eps": eps_values,
        "cache_eps": cache_eps,
        "has_photos": photos is not None,
        "counts": {
            "vertices": len(vertices),
            "segments": len(segments),
            "streets": len(streets),
            "pois": len(pois),
            "photos": len(photos) if photos is not None else 0,
        },
    }
    return meta, arrays


class IndexSnapshot:
    """One exported (or attached) shared-memory snapshot.

    Exporters own the block: they should eventually call :meth:`unlink`
    (directly or through :meth:`close`).  Attachers map it read-only and
    only ever :meth:`close` their mapping.  Both usages support the
    context-manager protocol.
    """

    def __init__(self, shm: shared_memory.SharedMemory, header: dict,
                 arrays: dict[str, np.ndarray], owner: bool) -> None:
        self._shm = shm
        self._header = header
        self._arrays = arrays
        self._owner = owner
        self._closed = False
        self._unlinked = False

    # -- construction -----------------------------------------------------

    @classmethod
    @trace_span("snapshot.export")
    def export(
        cls,
        engine: "SOIEngine",
        photos: "PhotoSet | None" = None,
        warm_eps: Sequence[float] = (),
        name: str | None = None,
    ) -> "IndexSnapshot":
        """Flatten ``engine`` (and ``photos``) into a fresh shm block."""
        meta, arrays = build_arrays(engine, photos, warm_eps)
        directory = []
        offset = 0
        for array_name, array in arrays.items():
            offset = _align(offset)
            directory.append({
                "name": array_name,
                "dtype": str(array.dtype),
                "shape": list(array.shape),
                "offset": offset,
            })
            offset += array.nbytes
        header = {
            "schema": SNAPSHOT_SCHEMA,
            "meta": meta,
            "arrays": directory,
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        payload_base = _align(8 + len(header_bytes))
        total = max(1, payload_base + offset)
        if name is None:
            name = f"repro-snap-{secrets.token_hex(6)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=total)
        try:
            shm.buf[:8] = len(header_bytes).to_bytes(8, "little")
            shm.buf[8:8 + len(header_bytes)] = header_bytes
            views: dict[str, np.ndarray] = {}
            for entry in directory:
                array = arrays[entry["name"]]
                view = np.ndarray(
                    array.shape, dtype=array.dtype, buffer=shm.buf,
                    offset=payload_base + entry["offset"])
                view[...] = array
                view.flags.writeable = False
                views[entry["name"]] = view
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        header["payload_base"] = payload_base
        return cls(shm, header, views, owner=True)

    @classmethod
    @trace_span("snapshot.attach")
    def attach(cls, name: str, track: bool = True) -> "IndexSnapshot":
        """Map an exported block read-only.

        ``track=False`` unregisters the mapping from this process's
        ``multiprocessing.resource_tracker``.  Processes *unrelated* to
        the exporter (own tracker) must pass it, or their tracker unlinks
        the block when they exit — the Python ≤3.12 non-owner cleanup
        bug.  Spawn-children of the exporter share its tracker and must
        keep the default (their unregister would strip the exporter's own
        registration from the shared tracker).
        """
        try:
            shm = shared_memory.SharedMemory(name=name, create=False)
        except FileNotFoundError as exc:
            raise SnapshotError(
                f"no shared-memory snapshot named {name!r}") from exc
        if not track:
            try:  # registered as a side effect of opening; undo for workers
                resource_tracker.unregister(shm._name, "shared_memory")
            except (AttributeError, KeyError):  # pragma: no cover - defensive
                pass
        try:
            header_len = int.from_bytes(bytes(shm.buf[:8]), "little")
            if not 0 < header_len <= len(shm.buf) - 8:
                raise SnapshotError(
                    f"snapshot {name!r} has a corrupt header length")
            header = json.loads(bytes(shm.buf[8:8 + header_len]))
            if header.get("meta", {}).get("magic") != _MAGIC:
                raise SnapshotError(
                    f"shared-memory block {name!r} is not a repro snapshot")
            if header.get("schema") != SNAPSHOT_SCHEMA:
                raise SnapshotError(
                    f"snapshot {name!r} has schema "
                    f"{header.get('schema')!r}; this build reads "
                    f"{SNAPSHOT_SCHEMA}")
            payload_base = _align(8 + header_len)
            header["payload_base"] = payload_base
            views: dict[str, np.ndarray] = {}
            for entry in header["arrays"]:
                view = np.ndarray(
                    tuple(entry["shape"]), dtype=np.dtype(entry["dtype"]),
                    buffer=shm.buf, offset=payload_base + entry["offset"])
                view.flags.writeable = False
                views[entry["name"]] = view
        except BaseException:
            shm.close()
            raise
        return cls(shm, header, views, owner=False)

    # -- access -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def generation(self) -> int:
        return int(self._header["meta"]["generation"])

    @property
    def meta(self) -> dict:
        return self._header["meta"]

    @property
    def nbytes(self) -> int:
        return self._shm.size

    def array(self, name: str) -> np.ndarray:
        """A (read-only) array column by name."""
        try:
            return self._arrays[name]
        except KeyError as exc:
            raise SnapshotError(
                f"snapshot {self.name!r} has no array {name!r}") from exc

    def has_array(self, name: str) -> bool:
        return name in self._arrays

    def strings(self, prefix: str) -> list[str]:
        """Decode the string table stored as ``<prefix>_blob/_offsets``."""
        return unpack_strings(self.array(f"{prefix}_blob"),
                              self.array(f"{prefix}_offsets"))

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Release this process's mapping (owners also unlink)."""
        if self._closed:
            return
        self._closed = True
        # The array views hold exported pointers into the mapping; they
        # must be dropped before the mmap can close.
        self._arrays = {}
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray external view
            # A caller still holds a view into the buffer; the mapping is
            # released when that view dies.  Unlink below still works.
            pass
        if self._owner:
            self.unlink()

    def unlink(self) -> None:
        """Remove the block from the system (exporter-side, idempotent)."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "IndexSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        counts = self.meta.get("counts", {})
        return (f"IndexSnapshot(name={self.name!r}, "
                f"generation={self.generation}, "
                f"segments={counts.get('segments')}, "
                f"pois={counts.get('pois')}, "
                f"photos={counts.get('photos')}, "
                f"nbytes={self.nbytes})")


__all__ = [
    "SNAPSHOT_SCHEMA",
    "IndexSnapshot",
    "build_arrays",
    "unpack_strings",
]
