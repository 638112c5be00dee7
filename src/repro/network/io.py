"""JSON serialisation of road networks, POI sets and photo sets.

The on-disk format is a single JSON document per dataset part.  It is
deliberately simple (line-delimited arrays of plain records) so that real
exports — e.g. an OSM extract post-processed elsewhere — can be converted
into it with a few lines of scripting, replacing the synthetic generator
without touching any library code.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.data.poi import POI, POISet
from repro.data.photo import Photo, PhotoSet
from repro.errors import NetworkError
from repro.network.model import RoadNetwork, Segment, Street, Vertex


def save_network_json(network: RoadNetwork, path: str | Path) -> None:
    """Write a network to ``path`` as JSON."""
    doc = {
        "vertices": [[v.id, v.x, v.y] for v in network.vertices.values()],
        "segments": [
            [s.id, s.street_id, s.u, s.v] for s in network.segments.values()
        ],
        "streets": [
            [s.id, s.name, list(s.segment_ids)]
            for s in network.streets.values()
        ],
    }
    Path(path).write_text(json.dumps(doc))


def load_network_json(path: str | Path) -> RoadNetwork:
    """Read a network previously written by :func:`save_network_json`.

    Raises :class:`~repro.errors.NetworkError` for a NaN or infinite
    vertex coordinate (``json`` reads ``NaN`` and ``Infinity``), as
    :meth:`~repro.network.builder.RoadNetworkBuilder.add_vertex` does.
    """
    doc = json.loads(Path(path).read_text())
    vertices = []
    for vid, x, y in doc["vertices"]:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NetworkError(
                f"vertex {vid} coordinates must be finite, got ({x}, {y})")
        vertices.append(Vertex(vid, x, y))
    coords = {v.id: (v.x, v.y) for v in vertices}
    segments = []
    for sid, street_id, u, v in doc["segments"]:
        ax, ay = coords[u]
        bx, by = coords[v]
        segments.append(Segment(sid, street_id, u, v, ax, ay, bx, by))
    streets = [Street(sid, name, tuple(seg_ids))
               for sid, name, seg_ids in doc["streets"]]
    return RoadNetwork(vertices, segments, streets)


def save_pois_json(pois: POISet, path: str | Path) -> None:
    """Write a POI set to ``path`` as JSON."""
    doc = [[p.id, p.x, p.y, sorted(p.keywords), p.weight]
           for p in pois]
    Path(path).write_text(json.dumps(doc))


def load_pois_json(path: str | Path) -> POISet:
    """Read a POI set previously written by :func:`save_pois_json`."""
    doc = json.loads(Path(path).read_text())
    return POISet(POI(pid, x, y, frozenset(kws), weight)
                  for pid, x, y, kws, weight in doc)


def save_photos_json(photos: PhotoSet, path: str | Path) -> None:
    """Write a photo set to ``path`` as JSON."""
    doc = [[r.id, r.x, r.y, sorted(r.keywords)] for r in photos]
    Path(path).write_text(json.dumps(doc))


def load_photos_json(path: str | Path) -> PhotoSet:
    """Read a photo set previously written by :func:`save_photos_json`."""
    doc = json.loads(Path(path).read_text())
    return PhotoSet(Photo(rid, x, y, frozenset(kws))
                    for rid, x, y, kws in doc)
