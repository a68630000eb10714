"""Trixels: the spherical triangles of the Hierarchical Triangular Mesh.

A trixel is stored as its three corner unit vectors in counter-clockwise
order (positive triple product) as seen from outside the sphere.  The
eight level-0 trixels are the faces of an octahedron whose vertices sit on
the coordinate axes; subdividing a trixel splits each edge at its
(normalized) midpoint, yielding four children of approximately equal area
— the construction of the paper's Figure 3.

The subdivision rule is written once, row-wise, as :func:`_children`:
every trixel's corners (:meth:`Trixel.children`, the mesh table of
:mod:`repro.htm.mesh`, the cover below it) come from it, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.vector import cross3, normalize

__all__ = ["Trixel", "BASE_TRIXELS", "base_trixel_vertices"]

# Octahedron vertices (the classical HTM v0..v5).
_V = np.array(
    [
        [0.0, 0.0, 1.0],   # v0: north pole
        [1.0, 0.0, 0.0],   # v1: ra 0
        [0.0, 1.0, 0.0],   # v2: ra 90
        [-1.0, 0.0, 0.0],  # v3: ra 180
        [0.0, -1.0, 0.0],  # v4: ra 270
        [0.0, 0.0, -1.0],  # v5: south pole
    ]
)

# Base trixel corner indices in the canonical HTM order: S0..S3, N0..N3.
# Orientation is counter-clockwise seen from outside.
_BASE_CORNERS = [
    ("S0", 1, 5, 2),
    ("S1", 2, 5, 3),
    ("S2", 3, 5, 4),
    ("S3", 4, 5, 1),
    ("N0", 1, 0, 4),
    ("N1", 4, 0, 3),
    ("N2", 3, 0, 2),
    ("N3", 2, 0, 1),
]


#: the corners of each child, in child order, among a trixel's corners
#: ``v0, v1, v2`` (0-2) and edge midpoints ``w0, w1, w2`` (3-5)
_CHILD_CORNERS = [[0, 5, 4], [1, 3, 5], [2, 4, 3], [3, 4, 5]]


def _child_ids(ids):
    """Ids of the four children of every trixel, in child order 0-3."""
    return ((ids[:, None] << 2) | np.arange(4)).reshape(-1)


def _children(corners, ids):
    """Corners and ids of the four children of each of the ``(n, 3, 3)``
    trixels ``corners`` with ids ``ids``, in child order 0-3: the
    subdivision rule, row-wise."""
    midpoints = normalize(corners[:, [1, 0, 0]] + corners[:, [2, 2, 1]])
    points = np.concatenate([corners, midpoints], axis=1)
    return points[:, _CHILD_CORNERS].reshape(-1, 3, 3), _child_ids(ids)


def base_trixel_vertices():
    """Corner vectors of the 8 root trixels, in id order (S0..S3, N0..N3).

    Returns an ``(8, 3, 3)`` array: ``result[k, i]`` is corner ``i`` of
    root ``k``; root ``k`` carries HTM id ``8 + k``.
    """
    out = np.empty((8, 3, 3))
    for k, (_, a, b, c) in enumerate(_BASE_CORNERS):
        out[k, 0] = _V[a]
        out[k, 1] = _V[b]
        out[k, 2] = _V[c]
    return out


class Trixel:
    """One spherical triangle of the mesh.

    Attributes
    ----------
    htm_id:
        The node's HTM id (see :mod:`repro.htm.mesh` for the encoding).
    corners:
        ``(3, 3)`` array of CCW corner unit vectors.
    """

    __slots__ = ("htm_id", "corners")

    def __init__(self, htm_id, corners):
        corners = np.asarray(corners, dtype=np.float64)
        if corners.shape != (3, 3):
            raise ValueError("trixel corners must be a (3, 3) array")
        v0, v1, v2 = corners
        orientation = (
            v0[0] * (v1[1] * v2[2] - v1[2] * v2[1])
            + v0[1] * (v1[2] * v2[0] - v1[0] * v2[2])
            + v0[2] * (v1[0] * v2[1] - v1[1] * v2[0])
        )
        if orientation <= 0.0:
            raise ValueError("trixel corners must be counter-clockwise (positive orientation)")
        self.htm_id = int(htm_id)
        self.corners = corners

    @property
    def depth(self):
        """Subdivision depth (0 for the octahedron faces)."""
        return (self.htm_id.bit_length() - 4) // 2

    def children(self):
        """The four child trixels, in HTM child order.

        With corners ``(v0, v1, v2)`` and edge midpoints ``w0 = mid(v1, v2)``,
        ``w1 = mid(v0, v2)``, ``w2 = mid(v0, v1)``, the children are::

            child 0: (v0, w2, w1)      child 2: (v2, w1, w0)
            child 1: (v1, w0, w2)      child 3: (w0, w1, w2)   (the middle)
        """
        corners, ids = _children(self.corners[None], np.array([self.htm_id]))
        return [Trixel(htm_id, child) for htm_id, child in zip(ids.tolist(), corners)]

    def contains(self, xyz):
        """Boolean mask: which vector(s) lie inside this trixel.

        A point is inside when it is on the positive side of all three
        edge planes.  Points on an edge or corner count as inside (so a
        point on a shared edge belongs to both trixels; the *lookup* in
        :mod:`repro.htm.mesh` breaks such ties deterministically by child
        order).  "On" is judged with a tolerance of 1e-12 of each edge
        normal's length — a point computed via a different floating-point
        route (trig vs. midpoint normalization) lands within a few ulps
        of the plane, not exactly on it, while 1e-12 of an edge is still
        sub-microarcsecond even for the deepest mesh levels.
        """
        xyz = np.asarray(xyz, dtype=np.float64)
        v0, v1, v2 = self.corners
        e01 = cross3(v0, v1)
        e12 = cross3(v1, v2)
        e20 = cross3(v2, v0)
        return (
            (np.sum(xyz * e01, axis=-1) >= -1.0e-12 * np.linalg.norm(e01))
            & (np.sum(xyz * e12, axis=-1) >= -1.0e-12 * np.linalg.norm(e12))
            & (np.sum(xyz * e20, axis=-1) >= -1.0e-12 * np.linalg.norm(e20))
        )

    def center(self):
        """Normalized centroid direction of the trixel."""
        return normalize(self.corners.sum(axis=0))

    def area_sr(self):
        """Exact spherical area (solid angle) via Girard's theorem."""
        v0, v1, v2 = self.corners
        # Interior angle at each corner from tangent directions.
        angles = []
        for apex, left, right in ((v0, v1, v2), (v1, v2, v0), (v2, v0, v1)):
            t_left = np.cross(np.cross(apex, left), apex)
            t_right = np.cross(np.cross(apex, right), apex)
            cos_angle = np.dot(t_left, t_right) / (
                np.linalg.norm(t_left) * np.linalg.norm(t_right)
            )
            angles.append(math.acos(min(1.0, max(-1.0, cos_angle))))
        return sum(angles) - math.pi

    def area_sqdeg(self):
        """Trixel area in square degrees."""
        return self.area_sr() * (180.0 / math.pi) ** 2

    def __repr__(self):
        from repro.htm.mesh import id_to_name

        return f"Trixel({id_to_name(self.htm_id)}, id={self.htm_id})"

    def __eq__(self, other):
        if not isinstance(other, Trixel):
            return NotImplemented
        return self.htm_id == other.htm_id

    def __hash__(self):
        return hash(self.htm_id)


#: The eight root trixels (S0..S3 have ids 8..11, N0..N3 have ids 12..15).
BASE_TRIXELS = [
    Trixel(8 + k, base_trixel_vertices()[k]) for k in range(8)
]
