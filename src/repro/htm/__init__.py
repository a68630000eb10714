"""Hierarchical Triangular Mesh — the paper's spatial index of the sky.

*"Starting with an octahedron base set, each spherical triangle can be
recursively divided into 4 sub-triangles of approximately equal areas. ...
Such hierarchical subdivisions can be very efficiently represented in the
form of quad-trees."* (Figure 3)

Modules
-------
* :mod:`repro.htm.trixel` — spherical triangles (trixels): vertices,
  children, areas, containment tests.
* :mod:`repro.htm.mesh` — the id scheme (2 bits per level over an 8-root
  octahedron) and vectorized point location.
* :mod:`repro.htm.ranges` — sorted id-interval sets, the compact result
  form of a coverage computation.
* :mod:`repro.htm.cover` — the inside/partial/outside coverage algorithm
  over regions of half-space constraints (Figure 4), one vectorised pass
  per mesh level.
* :mod:`repro.htm.depthmap` — coarse per-trixel density maps; their
  ``estimate`` is the paper's output-volume / search-time prediction.
"""

from repro.htm.trixel import Trixel, BASE_TRIXELS
from repro.htm.mesh import (
    HTM_ROOT_COUNT,
    id_to_name,
    name_to_id,
    lookup_id,
    lookup_ids,
    trixel_from_id,
    id_depth,
    depth_id_bounds,
    children_of,
    parent_of,
)
from repro.htm.ranges import RangeSet
from repro.htm.cover import Coverage, cover_region, Classification
from repro.htm.depthmap import DensityMap

__all__ = [
    "Trixel",
    "BASE_TRIXELS",
    "HTM_ROOT_COUNT",
    "id_to_name",
    "name_to_id",
    "lookup_id",
    "lookup_ids",
    "trixel_from_id",
    "id_depth",
    "depth_id_bounds",
    "children_of",
    "parent_of",
    "RangeSet",
    "Coverage",
    "cover_region",
    "Classification",
    "DensityMap",
]
