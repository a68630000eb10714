"""Trixel coverage of half-space regions, a level at a time (the paper's Figure 4).

*"Run a test between the query polyhedron and the spherical triangles
corresponding to the tree root nodes. ... Classify nodes, as fully outside
the query, fully inside the query or partially intersecting the query
polyhedron.  If a node is rejected, that node's children can be ignored.
Only the children of bisected triangles need be further investigated."*

The rule is level-synchronous: a node's verdict depends on the node
alone, and only a bisected node has children to look at.  So
:func:`cover_region` walks the mesh breadth-first.  The surviving
trixels of a level are one ``(n, 3, 3)`` corner array, classified
against every halfspace of the region in one vectorised pass; the
accepted ones become leaf-id intervals, the rejected ones are dropped,
and the children of the bisected ones are the next level.  A cover
costs at most ``depth + 1`` numpy passes over the survivors, not one
Python call per trixel.

:func:`classify_trixel_halfspace`, :func:`classify_trixel_convex` and
:func:`classify_trixel_region` decide one trixel with the same
arithmetic.  They are the scalar reference: the property tests require
the level pass to reproduce their verdicts exactly.

Correctness contract
--------------------
The classification is *conservative toward PARTIAL*: a trixel is reported
``INSIDE`` only if every point of it satisfies the region, and ``OUTSIDE``
only if no point does.  Ambiguous geometry degrades to ``PARTIAL``, whose
objects are re-checked point-wise downstream — so query answers are exact
regardless of coverage depth; depth only trades index work against the
number of objects that need the fine check.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from repro.geometry.convex import Convex
from repro.geometry.halfspace import Halfspace
from repro.geometry.region import Region
from repro.geometry.vector import cross3, normalize
from repro.htm.mesh import MAX_DEPTH
from repro.htm.ranges import RangeSet
from repro.htm.trixel import base_trixel_vertices

__all__ = ["Classification", "Coverage", "cover_region", "classify_trixel_region"]


class Classification(enum.Enum):
    """Trixel-vs-region verdicts."""

    INSIDE = "inside"
    OUTSIDE = "outside"
    PARTIAL = "partial"


def _point_in_trixel(point, corners):
    """True if ``point`` lies within the (closed) spherical triangle."""
    v0, v1, v2 = corners
    return (
        np.dot(point, cross3(v0, v1)) >= 0.0
        and np.dot(point, cross3(v1, v2)) >= 0.0
        and np.dot(point, cross3(v2, v0)) >= 0.0
    )


def _cap_boundary_crosses_edge(halfspace, a, b):
    """Does the circle ``x.n = c`` intersect the great-circle arc a->b?

    Solve for points on both the cap-boundary plane and the edge's great
    circle, then test whether either solution lies within the arc.
    """
    n = halfspace.normal
    c = halfspace.offset
    m = cross3(a, b)
    m_norm = np.linalg.norm(m)
    if m_norm == 0.0:
        return False
    m = m / m_norm

    n_dot_m = float(np.dot(n, m))
    denom = 1.0 - n_dot_m * n_dot_m
    if denom <= 1e-15:
        # Edge circle parallel to cap boundary: either identical (grazing)
        # or disjoint; no transversal crossing either way.
        return False
    # x = alpha*n + beta*m + gamma*(n x m); constraints x.n=c, x.m=0.
    alpha = c / denom
    beta = -c * n_dot_m / denom
    base = alpha * n + beta * m
    gamma_sq = 1.0 - float(np.dot(base, base))
    if gamma_sq < 0.0:
        return False
    gamma = math.sqrt(gamma_sq)
    direction = cross3(n, m)
    for sign in (1.0, -1.0):
        candidate = base + sign * gamma * direction
        # Candidate is on the edge's great circle; is it within the arc?
        within = (
            np.dot(cross3(a, candidate), m) >= -1e-15
            and np.dot(cross3(candidate, b), m) >= -1e-15
        )
        if within:
            return True
    return False


def classify_trixel_halfspace(corners, halfspace):
    """Classify a trixel against one half-space.

    Returns a :class:`Classification`; conservative toward PARTIAL.
    """
    if halfspace.is_full():
        return Classification.INSIDE
    if halfspace.is_empty():
        return Classification.OUTSIDE

    inside_mask = halfspace.contains(corners)
    n_inside = int(np.count_nonzero(inside_mask))

    if n_inside == 3:
        if halfspace.offset >= 0.0:
            # Cap is geodesically convex; corners in => triangle in.
            return Classification.INSIDE
        # Cap larger than a hemisphere: the *complement* cap is convex.
        # The triangle leaves the cap only if the shared boundary circle
        # crosses an edge or the complement cap sits wholly inside.
        anti_center = -halfspace.normal
        if _point_in_trixel(anti_center, corners):
            return Classification.PARTIAL
        for i in range(3):
            if _cap_boundary_crosses_edge(halfspace, corners[i], corners[(i + 1) % 3]):
                return Classification.PARTIAL
        return Classification.INSIDE

    if n_inside == 0:
        if _point_in_trixel(halfspace.normal, corners):
            return Classification.PARTIAL
        for i in range(3):
            if _cap_boundary_crosses_edge(halfspace, corners[i], corners[(i + 1) % 3]):
                return Classification.PARTIAL
        return Classification.OUTSIDE

    return Classification.PARTIAL


def classify_trixel_convex(corners, convex):
    """Classify a trixel against a convex (AND of half-spaces).

    OUTSIDE w.r.t. any constraint dominates; INSIDE requires INSIDE on all
    constraints; everything else is PARTIAL.  (A conjunction of PARTIALs
    may in truth be empty; we accept PARTIAL and let the point-wise filter
    settle it — the safe direction.)
    """
    if convex.is_empty():
        return Classification.OUTSIDE
    verdict = Classification.INSIDE
    for halfspace in convex:
        single = classify_trixel_halfspace(corners, halfspace)
        if single is Classification.OUTSIDE:
            return Classification.OUTSIDE
        if single is Classification.PARTIAL:
            verdict = Classification.PARTIAL
    return verdict


def classify_trixel_region(corners, region):
    """Classify a trixel against a region (OR of convexes).

    INSIDE w.r.t. any clause dominates; OUTSIDE requires OUTSIDE on all
    clauses; everything else is PARTIAL.
    """
    if region.is_empty():
        return Classification.OUTSIDE
    verdict = Classification.OUTSIDE
    for convex in region:
        single = classify_trixel_convex(corners, convex)
        if single is Classification.INSIDE:
            return Classification.INSIDE
        if single is Classification.PARTIAL:
            verdict = Classification.PARTIAL
    return verdict


# The level pass.  Each helper below applies a scalar test above to
# every row at once with the same floating-point operations, step for
# step: ``_cross`` forms the components as ``cross3`` does, and
# ``np.vecdot`` reduces each row with the BLAS dot that ``np.dot`` (and
# so ``np.linalg.norm`` of a vector) calls.  That is what makes every
# sign, and so every verdict, equal to the reference's.

#: verdicts as codes ordered so that a convex (AND) takes the minimum
#: over its halfspaces and a region (OR) the maximum over its convexes:
#: OUTSIDE dominates a convex, INSIDE a region
_OUTSIDE, _PARTIAL, _INSIDE = 0, 1, 2
#: edge ``i`` of a trixel runs from corner ``i`` to corner ``_HEADS[i]``
_HEADS = [1, 2, 0]
#: the two solutions of the edge test, ``base ± gamma * direction``
_SIGNS = np.array([1.0, -1.0])[:, None, None]
#: the corners of each child, in child order, among a trixel's corners
#: ``v0, v1, v2`` (0-2) and edge midpoints ``w0, w1, w2`` (3-5)
_CHILD_CORNERS = [[0, 5, 4], [1, 3, 5], [2, 4, 3], [3, 4, 5]]


def _cross(a, b):
    """:func:`cross3` row-wise over the last axis of broadcastable arrays
    (the arithmetic of ``np.cross``, without its axis handling)."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def _cap_boundary_crosses_edges(halfspace, a, b, length, m):
    """Element-wise :func:`_cap_boundary_crosses_edge` over the arcs
    ``a -> b``, given the length of ``a x b`` and ``m``, its unit vector."""
    n = halfspace.normal
    c = halfspace.offset
    # Where the scalar test returns early (a degenerate edge, an edge
    # circle parallel to the cap's, no real solution) this computes inf
    # or NaN, masked out at the end.
    with np.errstate(divide="ignore", invalid="ignore"):
        n_dot_m = np.vecdot(n, m)
        denom = 1.0 - n_dot_m * n_dot_m
        alpha = c / denom
        beta = -c * n_dot_m / denom
        base = alpha[..., None] * n + beta[..., None] * m
        gamma_sq = 1.0 - np.vecdot(base, base)
        candidate = base + (_SIGNS * np.sqrt(gamma_sq))[..., None] * _cross(n, m)
        within = (np.vecdot(_cross(a, candidate), m) >= -1e-15) & (
            np.vecdot(_cross(candidate, b), m) >= -1e-15
        )
    return (length != 0.0) & (denom > 1e-15) & (gamma_sq >= 0.0) & within.any(axis=0)


def _classify_halfspace_level(halfspace, corners, edges):
    """Row-wise :func:`classify_trixel_halfspace` of a level, as verdict
    codes.  A convex holds no full or empty halfspace (:class:`Convex`
    prunes them), so those two cases never arise here."""
    heads, planes, lengths, units = edges
    n_inside = np.count_nonzero(halfspace.contains(corners), axis=1)
    inside = n_inside == 3
    outside = n_inside == 0
    # No corner in is final unless the trixel holds the cap's centre or
    # the cap's boundary crosses an edge.  All corners in is final for a
    # cap no larger than a hemisphere, which is convex; for a larger one
    # the same probe runs with the centre of its complement.
    centres = np.where(inside[:, None, None], -halfspace.normal, halfspace.normal)
    cut = (np.vecdot(centres, planes) >= 0.0).all(axis=1)
    cut |= _cap_boundary_crosses_edges(halfspace, corners, heads, lengths, units).any(
        axis=1
    )
    outside &= ~cut
    if halfspace.offset < 0.0:
        inside &= ~cut
    verdict = np.full(len(corners), _PARTIAL, dtype=np.int8)
    verdict[inside] = _INSIDE
    verdict[outside] = _OUTSIDE
    return verdict


def _classify_level(corners, region):
    """Row-wise :func:`classify_trixel_region` of a level's ``(n, 3, 3)``
    corners, as verdict codes: one vectorised pass per halfspace."""
    # Every trixel's edges and their planes, shared by all halfspaces.
    heads = corners[:, _HEADS]
    planes = _cross(corners, heads)
    lengths = np.sqrt(np.vecdot(planes, planes))
    with np.errstate(divide="ignore", invalid="ignore"):
        units = planes / lengths[..., None]
    edges = (heads, planes, lengths, units)
    verdict = np.full(len(corners), _OUTSIDE, dtype=np.int8)
    for convex in region:
        clause = np.full(len(corners), _INSIDE, dtype=np.int8)
        for halfspace in convex:
            np.minimum(
                clause, _classify_halfspace_level(halfspace, corners, edges), out=clause
            )
        np.maximum(verdict, clause, out=verdict)
    return verdict


def _children(corners, ids):
    """Corners and ids of the four children of every trixel, in child
    order 0-3 and bit for bit as :meth:`Trixel.children` builds them."""
    midpoints = normalize(corners[:, [1, 0, 0]] + corners[:, [2, 2, 1]])
    points = np.concatenate([corners, midpoints], axis=1)
    children = points[:, _CHILD_CORNERS].reshape(-1, 3, 3)
    return children, ((ids[:, None] << 2) | np.arange(4)).reshape(-1)


class Coverage:
    """Result of covering a region down to ``depth``.

    Attributes
    ----------
    depth:
        Leaf depth of the computation.
    inside:
        :class:`RangeSet` of leaf-depth ids of trixels *fully inside* the
        region (subtrees accepted early are expanded to leaf intervals).
    partial:
        :class:`RangeSet` of leaf-depth ids of bisected trixels.
    stats:
        Dict of node counts: tested / accepted / rejected / bisected.
    """

    __slots__ = ("depth", "inside", "partial", "stats")

    def __init__(self, depth, inside, partial, stats):
        self.depth = depth
        self.inside = inside
        self.partial = partial
        self.stats = stats

    def candidates(self):
        """All leaf ids whose objects must be considered (inside + partial)."""
        return self.inside.union(self.partial)

    def __repr__(self):
        return (
            f"Coverage(depth={self.depth}, inside={self.inside.count()}, "
            f"partial={self.partial.count()})"
        )


def cover_region(region, depth):
    """Cover ``region`` with trixels down to ``depth``.

    The paper's classification, breadth-first: each level's surviving
    trixels are classified in one vectorised pass.  Nodes fully inside
    are accepted as whole subtrees (contiguous leaf-id intervals), nodes
    fully outside are dropped, and only the bisected nodes' children
    make the next level; the bisected nodes at ``depth`` are the partial
    leaves.  At most ``depth + 1`` passes.  ``inside``, ``partial`` and
    ``stats`` are exactly what classifying node by node with
    :func:`classify_trixel_region` gives.
    """
    if isinstance(region, Halfspace):
        region = Region.from_halfspace(region)
    elif isinstance(region, Convex):
        region = Region.from_convex(region)
    if not isinstance(region, Region):
        raise TypeError(f"expected Region/Convex/Halfspace, got {type(region).__name__}")
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [0, {MAX_DEPTH}], got {depth}")

    inside_intervals = []
    stats = {"tested": 0, "accepted": 0, "rejected": 0, "bisected": 0}
    corners = base_trixel_vertices()
    ids = np.arange(8, 16, dtype=np.int64)
    for level in range(depth + 1):
        verdict = _classify_level(corners, region)
        accepted = ids[verdict == _INSIDE]
        bisected = verdict == _PARTIAL
        shift = 2 * (depth - level)
        inside_intervals.extend(
            zip((accepted << shift).tolist(), (((accepted + 1) << shift) - 1).tolist())
        )
        stats["tested"] += len(ids)
        stats["accepted"] += len(accepted)
        stats["rejected"] += int(np.count_nonzero(verdict == _OUTSIDE))
        stats["bisected"] += int(np.count_nonzero(bisected))
        if level == depth or not bisected.any():
            break
        corners, ids = _children(corners[bisected], ids[bisected])

    return Coverage(
        depth=depth,
        inside=RangeSet(inside_intervals),
        partial=RangeSet.from_ids(ids[bisected].tolist()),
        stats=stats,
    )
