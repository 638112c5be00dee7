"""Object model for crowdsourced geospatial content.

* :mod:`repro.data.keywords` -- keyword normalisation and the keyword
  frequency vector (the street profile ``Phi_s`` of Section 4.1.2);
* :mod:`repro.data.poi` -- Points of Interest ``p = <(x, y), Psi_p>``;
* :mod:`repro.data.photo` -- geotagged photos ``r = <(x, y), Psi_r>``.

Both collection types (:class:`~repro.data.poi.POISet`,
:class:`~repro.data.photo.PhotoSet`) are column tables
(:mod:`repro.data.table`): ids, coordinates and keyword incidences live
in NumPy arrays so the geometry kernels can run vectorised over candidate
batches, and a table attached to existing columns decodes item objects
only on first access.
"""

from repro.data.keywords import KeywordFrequencyVector, normalize_keyword, tokenize
from repro.data.poi import POI, POISet
from repro.data.photo import Photo, PhotoSet

__all__ = [
    "KeywordFrequencyVector",
    "POI",
    "POISet",
    "Photo",
    "PhotoSet",
    "normalize_keyword",
    "tokenize",
]
