"""Region constructors for the query shapes astronomers actually write.

These are the building blocks the query language compiles spatial
predicates into: cone searches, coordinate rectangles, convex polygons,
latitude bands in any frame, and longitude wedges.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.convex import Convex
from repro.geometry.coords import EQUATORIAL, get_frame, latitude_halfspaces
from repro.geometry.halfspace import Halfspace
from repro.geometry.region import Region
from repro.geometry.vector import cross, normalize, radec_to_vector, triple_product

__all__ = [
    "circle_region",
    "rect_region",
    "polygon_region",
    "latitude_band",
    "longitude_wedge",
]


def circle_region(ra, dec, radius_deg):
    """Cone search region: all points within ``radius_deg`` of (ra, dec)."""
    return Region.from_halfspace(Halfspace.from_cone(ra, dec, radius_deg))


def latitude_band(lat_min_deg, lat_max_deg, frame=EQUATORIAL):
    """Band ``lat_min <= latitude <= lat_max`` in ``frame`` (default equatorial).

    This is the left-hand shape of the paper's Figure 4; crossing two such
    bands from different frames reproduces that example exactly::

        band_eq  = latitude_band(-10, 10)
        band_gal = latitude_band(20, 40, frame=GALACTIC)
        query    = band_eq & band_gal
    """
    constraints = latitude_halfspaces(frame, lat_min_deg, lat_max_deg)
    return Region.from_convex(Convex(constraints))


def longitude_wedge(lon_min_deg, lon_max_deg, frame=EQUATORIAL):
    """Region ``lon_min <= longitude <= lon_max`` in ``frame``.

    Wedges not wider than 180 degrees are a single convex (two half-planes
    through the poles); wider wedges are split into two convexes.
    Longitudes are taken modulo 360 and the wedge runs *eastward* from
    ``lon_min`` to ``lon_max``.
    """
    frame = get_frame(frame) if isinstance(frame, str) else frame
    lon_min = float(lon_min_deg) % 360.0
    span = (float(lon_max_deg) - float(lon_min_deg)) % 360.0
    if span == 0.0 and lon_max_deg != lon_min_deg:
        span = 360.0
    if span >= 360.0 or span == 0.0 and lon_max_deg == lon_min_deg + 360.0:
        return Region.full_sphere()
    if span > 180.0:
        middle = (lon_min + span / 2.0) % 360.0
        first = longitude_wedge(lon_min, middle, frame)
        second = longitude_wedge(middle, (lon_min + span) % 360.0, frame)
        return first.union(second)

    def _meridian_halfspace(lon_deg, facing_east):
        # The meridian plane at lon has in-frame normal perpendicular to
        # both the pole and the meridian direction; choose the sign so the
        # kept side faces east (or west) of the meridian.
        lon_rad = math.radians(lon_deg)
        normal = np.array([-math.sin(lon_rad), math.cos(lon_rad), 0.0])
        if not facing_east:
            normal = -normal
        normal_eq = normal @ frame.matrix
        return Halfspace(normal_eq, 0.0)

    east_of_min = _meridian_halfspace(lon_min, facing_east=True)
    west_of_max = _meridian_halfspace((lon_min + span) % 360.0, facing_east=False)
    return Region.from_convex(Convex((east_of_min, west_of_max)))


def rect_region(ra_min, ra_max, dec_min, dec_max, frame=EQUATORIAL):
    """Coordinate rectangle: a longitude wedge AND a latitude band."""
    if dec_min > dec_max:
        raise ValueError("dec_min must not exceed dec_max")
    wedge = longitude_wedge(ra_min, ra_max, frame)
    band = latitude_band(dec_min, dec_max, frame)
    return wedge.intersect(band)


def polygon_region(vertices_radec):
    """Convex spherical polygon from (ra, dec) vertices in degrees.

    Vertices must describe a convex polygon smaller than a hemisphere.
    Winding order is detected automatically.  Each edge (great-circle arc)
    becomes a hemisphere constraint whose normal is the cross product of
    consecutive vertices.

    Raises :class:`ValueError` for fewer than 3 vertices or a non-convex
    vertex sequence.
    """
    vertices = np.array(
        [radec_to_vector(float(ra), float(dec)) for ra, dec in vertices_radec]
    )
    if len(vertices) < 3:
        raise ValueError("a spherical polygon needs at least 3 vertices")

    # Orientation: use the sign of the triple product of the first corner.
    orientation = triple_product(vertices[0], vertices[1], vertices[2])
    if orientation == 0.0:
        raise ValueError("degenerate polygon: first three vertices are coplanar")
    if orientation < 0.0:
        vertices = vertices[::-1]

    normals = cross(vertices, np.roll(vertices, -1, axis=0))
    if not np.linalg.norm(normals, axis=1).all():
        raise ValueError("degenerate polygon edge (repeated or antipodal vertices)")
    normals = normalize(normals)

    # Convexity check: every vertex must lie in the polygon itself.  A
    # vertex is on its own two edges, which rounding puts a few ulps to
    # either side, so "in" is judged within 1e-12 of the (unit) edge
    # normal, as Trixel.contains judges "on"; a reflex vertex lies far
    # outside an edge.
    if (vertices @ normals.T < -1.0e-12).any():
        raise ValueError("vertex sequence does not describe a convex polygon")
    return Region.from_convex(Convex([Halfspace(normal, 0.0) for normal in normals]))
