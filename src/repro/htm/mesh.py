"""HTM id scheme and point location.

Encoding (the classical JHU scheme): an id at depth ``d`` is a binary
number of ``4 + 2d`` bits.  The top 4 bits are ``10xx`` for the southern
roots S0..S3 (ids 8..11) and ``11xx`` for the northern roots N0..N3
(ids 12..15); each deeper level appends 2 bits selecting the child
(0..3).  Consequently depth-``d`` ids occupy ``[8 * 4**d, 16 * 4**d)`` and
the four children of node ``t`` are ``4t .. 4t + 3`` — which is what makes
interval arithmetic on id ranges (see :mod:`repro.htm.ranges`) equivalent
to set algebra on sky areas.

Names are the human-readable form: ``"N0"``, ``"S312"``, etc., one child
digit per level.

The mesh table lives here: the corners and bounding caps of every
trixel of levels 0 to 6, built once per process by the subdivision rule
of :mod:`repro.htm.trixel`, and the edge normals of their children,
read-only.  It is the one source of trixel corners: the cover
(:mod:`repro.htm.cover`) reads the corners and caps,
:func:`trixel_corners` an id's row (subdivided on for a deeper id), and
point location descends through the normals, a gather and three
multiply-adds per point and level, and walks on from the level-6
corners for a deeper id.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.geometry.vector import cross, normalize, radec_to_vector
from repro.htm.trixel import Trixel, _child_ids, _children, base_trixel_vertices

__all__ = [
    "HTM_ROOT_COUNT",
    "id_depth",
    "depth_id_bounds",
    "children_of",
    "parent_of",
    "id_to_name",
    "name_to_id",
    "trixel_from_id",
    "lookup_id",
    "lookup_ids",
    "trixel_count_at_depth",
]

#: Number of level-0 trixels (octahedron faces).
HTM_ROOT_COUNT = 8

#: Practical depth limit: 2 bits/level in int64 allows depth <= 29; we cap
#: below that so (id ranges, child shifts) never overflow signed 64-bit.
MAX_DEPTH = 24

_ROOT_NAMES = ["S0", "S1", "S2", "S3", "N0", "N1", "N2", "N3"]
_ROOT_IDS = {name: 8 + k for k, name in enumerate(_ROOT_NAMES)}


def _validate_id(htm_id):
    htm_id = int(htm_id)
    bits = htm_id.bit_length()
    if htm_id < 8 or (bits - 4) % 2 != 0:
        raise ValueError(f"invalid HTM id {htm_id}")
    return htm_id


def id_depth(htm_id):
    """Depth of an HTM id (0 for roots)."""
    return (_validate_id(htm_id).bit_length() - 4) // 2


def depth_id_bounds(depth):
    """Half-open id interval ``[lo, hi)`` of all ids at ``depth``."""
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [0, {MAX_DEPTH}], got {depth}")
    return 8 * 4**depth, 16 * 4**depth


def trixel_count_at_depth(depth):
    """Number of trixels at a depth: ``8 * 4**depth``."""
    lo, hi = depth_id_bounds(depth)
    return hi - lo


def children_of(htm_id):
    """The four child ids of a node."""
    htm_id = _validate_id(htm_id)
    return [htm_id * 4 + i for i in range(4)]


def parent_of(htm_id):
    """Parent id, or ``None`` for a root."""
    htm_id = _validate_id(htm_id)
    if htm_id < 16:
        return None
    return htm_id >> 2


def id_to_name(htm_id):
    """Render an id as its HTM name, e.g. ``14 -> 'N2'``, ``57 -> 'N201'``...

    The name is the root label followed by one child digit per level.
    """
    htm_id = _validate_id(htm_id)
    digits = []
    while htm_id >= 16:
        digits.append(htm_id & 3)
        htm_id >>= 2
    root = _ROOT_NAMES[htm_id - 8]
    return root + "".join(str(d) for d in reversed(digits))


def name_to_id(name):
    """Parse an HTM name back to its id."""
    name = str(name).upper()
    if len(name) < 2 or name[:2] not in _ROOT_IDS:
        raise ValueError(f"invalid HTM name {name!r}")
    htm_id = _ROOT_IDS[name[:2]]
    for ch in name[2:]:
        if ch not in "0123":
            raise ValueError(f"invalid HTM name {name!r}: bad child digit {ch!r}")
        htm_id = htm_id * 4 + int(ch)
    return htm_id


def trixel_corners(htm_id):
    """Corner vectors of a trixel: its row of the mesh table, or for an
    id below the table its level-6 ancestor's row subdivided once per
    digit below."""
    htm_id = _validate_id(htm_id)
    depth = (htm_id.bit_length() - 4) // 2
    level = min(depth, _TABLE_DEPTH)
    node = htm_id >> 2 * (depth - level)
    corners = _mesh_top()[level][0][node - (8 << 2 * level)]
    for shift in range(2 * (depth - level) - 2, -2, -2):
        children, _ = _children(corners[None], np.array([node]))
        node = htm_id >> shift
        corners = children[node & 3]
    return corners.copy()


def trixel_from_id(htm_id):
    """Materialize the :class:`Trixel` for an id."""
    htm_id = _validate_id(htm_id)
    return Trixel(htm_id, trixel_corners(htm_id))


def lookup_id(ra, dec, depth):
    """HTM id at ``depth`` of a single (ra, dec) position in degrees."""
    ids = lookup_ids(np.asarray([float(ra)]), np.asarray([float(dec)]), depth)
    return int(ids[0])


def lookup_ids(ra, dec, depth):
    """Vectorized point location: HTM ids at ``depth`` for arrays of degrees.

    Ties on shared edges are broken deterministically by child test order
    (0, 1, 2, then the middle child 3), so every point maps to exactly one
    trixel — the property the paper's clustering containers rely on.
    """
    xyz = radec_to_vector(np.atleast_1d(ra), np.atleast_1d(dec))
    return lookup_ids_from_vectors(xyz, depth)


# The mesh table: every trixel of levels 0 to ``_TABLE_DEPTH``, built
# once per process.  The cover (:mod:`repro.htm.cover`) reads its corners
# and bounding caps, point location its edge normals.

#: the deepest level the mesh table holds: 43 688 trixels
_TABLE_DEPTH = 6
#: points located at a time: each level's temporaries (nine rows of dot
#: products) stay small enough to sit in cache and to leave no large
#: freed block behind, which on the 97 800-row catalog measured faster
#: and with a lower peak resident set than one pass over every point
_CHUNK_ROWS = 8192
#: edge ``i`` of a trixel runs from corner ``i`` to corner ``_HEADS[i]``
_HEADS = [1, 2, 0]


def _bounding_caps(corners):
    """Centre and angular radius of each trixel's bounding cap: the
    normalised corner sum and the largest corner angle from it.  The
    radius is under 90 degrees at every level, so the cap is convex and
    holds the trixel."""
    centres = normalize(corners.sum(axis=1))
    nearest = np.vecdot(corners, centres[:, None]).min(axis=1)
    return centres, np.arccos(np.clip(nearest, -1.0, 1.0))


def _edge_normals(corners):
    """The cross product of each edge's endpoints, ``(..., 3 edges, 3)``."""
    return cross(corners, corners[..., _HEADS, :])


@functools.cache
def _mesh_top():
    """``(corners, centres, radii)`` of every trixel of each level up to
    :data:`_TABLE_DEPTH`, rows in id order (id ``8 * 4**level + row``),
    built by :func:`~repro.htm.trixel._children`, so the corners are bit
    for bit the ones :meth:`Trixel.children` and a walk derive; about
    4.5 MB, read-only."""
    levels = []
    corners, ids = base_trixel_vertices(), np.arange(8, 16, dtype=np.int64)
    for level in range(_TABLE_DEPTH + 1):
        if level:
            corners, ids = _children(corners, ids)
        tables = (corners, *_bounding_caps(corners))
        for table in tables:
            table.setflags(write=False)
        levels.append(tables)
    return tuple(levels)


@functools.cache
def _mesh_planes():
    """The edge normals point location tests, from the table's corners:
    ``(roots, tolerance, levels)``.  ``roots`` is ``(3, 24)``, column
    ``8 * e + k`` the components of edge ``e`` of root ``k``, and
    ``tolerance`` their ``-1e-12 * |e|`` of :meth:`Trixel.contains`.
    ``levels[l]`` is ``(3, 9, 8 * 4**l)``: ``[:, 3 * e + child, r]`` is
    edge ``e`` of child 0-2 of the level's trixel ``r``, so gathering a
    level's rows gives each component as nine contiguous rows; about
    2.4 MB, read-only."""
    roots = _edge_normals(base_trixel_vertices()).transpose(2, 1, 0).reshape(3, 24)
    tolerance = -1.0e-12 * np.linalg.norm(roots, axis=0)
    levels = []
    for corners, _, _ in _mesh_top()[1:]:
        normals = _edge_normals(corners).reshape(-1, 4, 3, 3)[:, :3]
        planes = np.ascontiguousarray(normals.transpose(3, 2, 1, 0)).reshape(3, 9, -1)
        planes.setflags(write=False)
        levels.append(planes)
    return roots, tolerance, tuple(levels)


def _first_child(dots):
    """Per point, the first child in order 0-3 whose edge planes hold
    it, or -1 for none, from the ``(9, n)`` dot products with the edge
    normals of children 0-2 (row ``3 * e + child``).

    Edge 1 of each of children 0-2 is an edge of the middle child 3
    walked the other way, and ``cross(b, a)`` is ``-cross(a, b)``
    exactly, so the middle child holds a point exactly where those three
    products are ``<= 0``.
    """
    held = dots >= 0.0
    held = held[0:3] & held[3:6] & held[6:9]
    chosen = np.where((dots[3] <= 0.0) & (dots[4] <= 0.0) & (dots[5] <= 0.0), 3, -1)
    for child in (2, 1, 0):
        chosen[held[child]] = child
    return chosen


def _settle(points, children):
    """Child of each point that no child's edge planes hold, given the
    ``(n, 4, 3, 3)`` corners of its trixel's children.

    A point lying exactly on a mesh vertex or edge can be rejected by
    every strict test through one-ulp rounding, and blindly defaulting
    would file it half a trixel away from where it belongs; for those
    (rare) points pick the child whose worst edge-plane deviation is
    smallest.
    """
    normals = _edge_normals(children)
    worst = np.sum(points[:, None, None] * normals, axis=-1).min(axis=2)
    # argmax ties break toward the lower child index, the same order the
    # strict tests use.
    return worst.argmax(axis=1)


def lookup_ids_from_vectors(xyz, depth):
    """As :func:`lookup_ids` but starting from ``(n, 3)`` unit vectors.

    A descent through the mesh table: the eight roots, then at each
    level down to :data:`_TABLE_DEPTH` the tabulated edge normals of the
    point's children, gathered by its trixel's row.  Each test sums
    ``x*ex + y*ey + z*ez`` left to right, as ``np.sum(xyz * e, axis=1)``
    does, so a walk that derives every point's corners level by level
    files every point in the same trixel.  Below the table the walk
    does that, from the table's corners.
    """
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [0, {MAX_DEPTH}], got {depth}")
    xyz = np.asarray(xyz, dtype=np.float64)
    if xyz.ndim == 1:
        xyz = xyz[None, :]
    ids = np.empty(len(xyz), dtype=np.int64)
    for start in range(0, len(xyz), _CHUNK_ROWS):
        chunk = slice(start, start + _CHUNK_ROWS)
        ids[chunk] = _locate(xyz[chunk], depth)
    return ids


def _locate(xyz, depth):
    """:func:`lookup_ids_from_vectors` of at most :data:`_CHUNK_ROWS`
    points."""
    x, y, z = np.ascontiguousarray(xyz.T)
    roots, tolerance, planes = _mesh_planes()

    # Root assignment: the first root whose edge planes hold the point,
    # within the tolerance of Trixel.contains.
    dots = roots[0, :, None] * x
    dots += roots[1, :, None] * y
    dots += roots[2, :, None] * z
    held = dots >= tolerance[:, None]
    held = held[0:8] & held[8:16] & held[16:24]
    rows = held.argmax(axis=0)
    leftovers = np.flatnonzero(~held.any(axis=0))
    if leftovers.size:
        # Numerically pathological points (should not happen for unit
        # vectors); assign to the nearest root center as a fallback.
        centers = base_trixel_vertices().mean(axis=1)
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        rows[leftovers] = np.argmax(xyz[leftovers] @ centers.T, axis=1)

    top = _mesh_top()
    for level in range(min(depth, _TABLE_DEPTH)):
        ex, ey, ez = planes[level]
        dots = np.take(ex, rows, axis=1)
        dots *= x
        product = np.take(ey, rows, axis=1)
        product *= y
        dots += product
        product = np.take(ez, rows, axis=1)
        product *= z
        dots += product
        chosen = _first_child(dots)
        rest = np.flatnonzero(chosen < 0)
        if rest.size:
            children = top[level + 1][0][_child_ids(rows[rest]).reshape(-1, 4)]
            chosen[rest] = _settle(xyz[rest], children)
        rows = (rows << 2) + chosen

    level = min(depth, _TABLE_DEPTH)
    ids = rows + (8 << 2 * level)
    if depth > level:
        ids = _walk(xyz, top[level][0][rows], ids, depth - level)
    return ids


def _walk(xyz, corners, ids, levels):
    """Point location ``levels`` levels below the trixels ``ids`` with
    corners ``corners``, deriving each point's children from its
    corners level by level (bit for bit as
    :func:`~repro.htm.trixel._children` does).

    Below level 6 a chunk of :data:`_CHUNK_ROWS` points has almost one
    point per trixel, so sharing a trixel's subdivision between its
    points saves nothing.  On the 97 800-row benchmark catalog (2-CPU
    box, best of 3, identical ids) the whole lookup took 0.25 s to
    depth 8 and 0.36 s to depth 10 with this walk below level 6, 0.38 s
    and 0.74 s with ``_children`` and one ``_edge_normals`` per level,
    and 0.49 s and 0.84 s with one set of normals per distinct parent
    (``np.unique``).
    """
    for _ in range(levels):
        v0 = corners[:, 0]
        v1 = corners[:, 1]
        v2 = corners[:, 2]
        w0 = v1 + v2
        w0 /= np.linalg.norm(w0, axis=1, keepdims=True)
        w1 = v0 + v2
        w1 /= np.linalg.norm(w1, axis=1, keepdims=True)
        w2 = v0 + v1
        w2 /= np.linalg.norm(w2, axis=1, keepdims=True)
        child_corner_sets = (
            (v0, w2, w1),
            (v1, w0, w2),
            (v2, w1, w0),
            (w0, w1, w2),
        )
        dots = np.stack(
            [
                np.sum(xyz * cross(corner_set[e], corner_set[_HEADS[e]]), axis=1)
                for e in range(3)
                for corner_set in child_corner_sets[:3]
            ]
        )
        chosen = _first_child(dots)
        rest = np.flatnonzero(chosen < 0)
        if rest.size:
            children = np.stack(
                [np.stack(child, axis=1)[rest] for child in child_corner_sets], axis=1
            )
            chosen[rest] = _settle(xyz[rest], children)

        new_corners = np.empty_like(corners)
        for child_index, (a, b, c) in enumerate(child_corner_sets):
            mask = chosen == child_index
            new_corners[mask, 0] = a[mask]
            new_corners[mask, 1] = b[mask]
            new_corners[mask, 2] = c[mask]
        corners = new_corners
        ids = ids * 4 + chosen
    return ids
