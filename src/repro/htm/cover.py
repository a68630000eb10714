"""Trixel coverage of half-space regions (the paper's Figure 4).

*"Run a test between the query polyhedron and the spherical triangles
corresponding to the tree root nodes. ... Classify nodes, as fully outside
the query, fully inside the query or partially intersecting the query
polyhedron.  If a node is rejected, that node's children can be ignored.
Only the children of bisected triangles need be further investigated."*

The rule is level-synchronous: a node's verdict depends on the node
alone, and only a bisected node has children to look at.  So
:func:`cover_region` walks the mesh breadth-first, in two steps.

1. *Expand.*  Every trixel has a bounding cap (its normalised corner sum
   and its largest corner angle), and comparing two caps' angles decides
   most trixels, those the region's boundary passes at a distance: a few
   numpy calls per halfspace per level.  Only the children of the
   trixels the caps leave undecided make the next level.  The corners
   and caps of levels 0 to 6 come from the mesh table, built once per
   process in :mod:`repro.htm.mesh` (point location reads its edge
   normals); deeper levels derive their corners from their parents' by
   the same subdivision rule, :func:`repro.htm.trixel._children`.
2. *Classify once.*  One vectorised pass of the exact test decides every
   undecided trixel of every level, and replaying the walk's rule (a
   trixel is tested only if every ancestor was bisected) over the
   verdicts gives the accepted subtrees, the partial leaves and the
   counts.

:func:`classify_trixel_halfspace`, :func:`classify_trixel_convex` and
:func:`classify_trixel_region` decide one trixel with the exact test's
arithmetic.  They are the scalar reference: the property tests require
the exact pass to reproduce their verdicts, and the cover the
trixel-at-a-time walk over them, exactly.

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
from repro.geometry.vector import cross, cross3
from repro.htm.mesh import _HEADS, _TABLE_DEPTH, MAX_DEPTH, _bounding_caps, _mesh_top
from repro.htm.ranges import RangeSet
from repro.htm.trixel import _child_ids, _children

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


def _cap_boundary_points(halfspace, m):
    """The two points where the circle ``x.n = c`` meets the great circle
    whose unit pole is ``m``, or ``()`` where the two do not cross."""
    n = halfspace.normal
    c = halfspace.offset
    n_dot_m = float(np.dot(n, m))
    # |n x m|^2, which is 1 - (n.m)^2 for unit n and m but does not
    # cancel when the two circles nearly parallel each other.
    normal = cross3(n, m)
    denom = float(np.dot(normal, normal))
    if denom <= 1e-15:
        # Edge circle parallel to cap boundary: either identical (grazing)
        # or disjoint; no transversal crossing either way.
        return ()
    # x = alpha*n + beta*m + gamma*u, u the unit normal to n and m;
    # constraints x.n = c, x.m = 0 and |x| = 1.  n x m has length
    # sqrt(denom), not 1, so u is (n x m) / sqrt(denom).
    alpha = c / denom
    beta = -c * n_dot_m / denom
    base = alpha * n + beta * m
    gamma_sq = 1.0 - float(np.dot(base, base))
    if gamma_sq < 0.0:
        return ()
    gamma = math.sqrt(gamma_sq)
    direction = normal / math.sqrt(denom)
    return tuple(base + sign * gamma * direction for sign in (1.0, -1.0))


def _cap_boundary_crosses_edge(halfspace, a, b):
    """Does the circle ``x.n = c`` intersect the great-circle arc a->b?

    Find the points on both the cap's boundary and the edge's great
    circle, then test whether either lies within the arc.
    """
    m = cross3(a, b)
    m_norm = np.linalg.norm(m)
    if m_norm == 0.0:
        return False
    m = m / m_norm
    return any(
        np.dot(cross3(a, candidate), m) >= -1e-15
        and np.dot(cross3(candidate, b), m) >= -1e-15
        for candidate in _cap_boundary_points(halfspace, m)
    )


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


# The exact pass.  Each helper below applies a scalar test above to
# every row at once with the same floating-point operations, step for
# step: ``cross`` forms the components as ``cross3`` does, and
# ``np.vecdot`` reduces each row with the BLAS dot that ``np.dot`` (and
# so ``np.linalg.norm`` of a vector) calls.  That is what makes every
# sign, and so every verdict, equal to the reference's.

#: verdicts as codes ordered so that a convex (AND) takes the minimum
#: over its halfspaces and a region (OR) the maximum over its convexes:
#: OUTSIDE dominates a convex, INSIDE a region
_OUTSIDE, _PARTIAL, _INSIDE = 0, 1, 2
#: the two solutions of the edge test, ``base ± gamma * direction``
_SIGNS = np.array([1.0, -1.0])[:, None, None]


def _cap_boundary_points_rows(halfspace, m):
    """Row-wise :func:`_cap_boundary_points` for unit poles ``m``: the
    ``(2, ..., 3)`` points, and where the scalar form returns them."""
    n = halfspace.normal
    c = halfspace.offset
    # Where the scalar form returns early (an edge circle parallel to the
    # cap's, no real solution) this computes inf or NaN, masked out.
    with np.errstate(divide="ignore", invalid="ignore"):
        n_dot_m = np.vecdot(n, m)
        normal = cross(n, m)
        denom = np.vecdot(normal, normal)
        alpha = c / denom
        beta = -c * n_dot_m / denom
        base = alpha[..., None] * n + beta[..., None] * m
        gamma_sq = 1.0 - np.vecdot(base, base)
        direction = normal / np.sqrt(denom)[..., None]
        points = base + (_SIGNS * np.sqrt(gamma_sq))[..., None] * direction
    return points, (denom > 1e-15) & (gamma_sq >= 0.0)


def _cap_boundary_crosses_edges(halfspace, a, b, length, m):
    """Element-wise :func:`_cap_boundary_crosses_edge` over the arcs
    ``a -> b``, given the length of ``a x b`` and ``m``, its unit vector
    (NaN where the length is 0, masked out)."""
    points, met = _cap_boundary_points_rows(halfspace, m)
    with np.errstate(invalid="ignore"):
        within = (np.vecdot(cross(a, points), m) >= -1e-15) & (
            np.vecdot(cross(points, b), m) >= -1e-15
        )
    return (length != 0.0) & met & within.any(axis=0)


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
    """Row-wise :func:`classify_trixel_region` of the ``(n, 3, 3)``
    corners of any trixels, as verdict codes: one vectorised pass per
    halfspace."""
    # Every trixel's edges and their planes, shared by all halfspaces.
    heads = corners[:, _HEADS]
    planes = cross(corners, heads)
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


# The bounding caps.  They decide a trixel only by a margin, so the
# exact test, run on what they leave undecided, is never overruled.

#: how far, in radians, a bounding cap must clear a halfspace's boundary
#: to decide a trixel.  ``arccos`` near 0 is good to only about 1.5e-8
#: rad (a cosine within 1e-16 of 1), and the exact test's crossing
#: checks tolerate 1e-15; a margin far above both keeps every decided
#: verdict the exact test's own.
EPS = 1e-6


def _cap_verdicts(centres, radii, region):
    """Verdict codes the bounding caps decide, ``_PARTIAL`` where they
    leave a trixel undecided.  Against a halfspace of angular radius
    ``theta`` whose normal lies at angle ``d`` from a cap's centre, the
    trixel is outside when ``d - radius - theta > EPS`` and inside when
    ``theta - d - radius > EPS``; the halfspaces combine as in
    :func:`_classify_level`."""
    verdict = np.full(len(centres), _OUTSIDE, dtype=np.int8)
    for convex in region:
        clause = np.full(len(centres), _INSIDE, dtype=np.int8)
        for halfspace in convex:
            theta = math.acos(halfspace.offset)
            d = np.arccos(np.clip(centres @ halfspace.normal, -1.0, 1.0))
            # inside counts 2 (it is also not outside), undecided 1
            code = (theta - d - radii > EPS).view(np.int8) + (
                d - radii - theta <= EPS
            ).view(np.int8)
            np.minimum(clause, code, out=clause)
        np.maximum(verdict, clause, out=verdict)
    return verdict


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

    The paper's classification, breadth-first: nodes fully inside are
    accepted as whole subtrees (contiguous leaf-id intervals), nodes
    fully outside are dropped, and only the bisected nodes' children are
    looked at; the bisected nodes at ``depth`` are the partial leaves.
    The bounding caps decide most nodes level by level, and one exact
    pass (:func:`_classify_level`) decides the rest.  ``inside``,
    ``partial`` and ``stats`` are exactly what classifying node by node
    with :func:`classify_trixel_region` gives.
    """
    if isinstance(region, Halfspace):
        region = Region.from_halfspace(region)
    elif isinstance(region, Convex):
        region = Region.from_convex(region)
    if not isinstance(region, Region):
        raise TypeError(f"expected Region/Convex/Halfspace, got {type(region).__name__}")
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [0, {MAX_DEPTH}], got {depth}")

    # Expand: the caps decide what they can, and the children of the
    # undecided trixels make the next level.  ``levels`` keeps each
    # level's ids, verdicts and undecided mask, ``pending`` the corners
    # of its undecided trixels.
    levels, pending = [], []
    ids = np.arange(8, 16, dtype=np.int64)
    for level in range(depth + 1):
        if level <= _TABLE_DEPTH:
            top_corners, top_centres, top_radii = _mesh_top()[level]
            rows = ids - (8 << 2 * level)
            verdict = _cap_verdicts(top_centres[rows], top_radii[rows], region)
            undecided = verdict == _PARTIAL
            corners = top_corners[rows[undecided]]
        else:
            verdict = _cap_verdicts(*_bounding_caps(corners), region)
            undecided = verdict == _PARTIAL
            corners = corners[undecided]
        levels.append((ids, verdict, undecided))
        pending.append(corners)
        if level == depth or not undecided.any():
            break
        if level < _TABLE_DEPTH:
            ids = _child_ids(ids[undecided])
        else:
            corners, ids = _children(corners, ids[undecided])

    # Classify once: the exact test over every undecided trixel.
    counts = [len(corners) for corners in pending]
    if sum(counts):
        exact = _classify_level(np.concatenate(pending), region)
        for (_, verdict, undecided), part in zip(
            levels, np.split(exact, np.cumsum(counts)[:-1])
        ):
            verdict[undecided] = part

    # Replay the walk: a trixel is tested if every ancestor was bisected.
    inside_intervals = []
    stats = {"tested": 0, "accepted": 0, "rejected": 0, "bisected": 0}
    tested = np.ones(8, dtype=bool)
    for level, (ids, verdict, undecided) in enumerate(levels):
        accepted = ids[tested & (verdict == _INSIDE)]
        bisected = tested & (verdict == _PARTIAL)
        shift = 2 * (depth - level)
        inside_intervals.extend(
            zip((accepted << shift).tolist(), (((accepted + 1) << shift) - 1).tolist())
        )
        stats["tested"] += int(np.count_nonzero(tested))
        stats["accepted"] += len(accepted)
        stats["rejected"] += int(np.count_nonzero(tested & (verdict == _OUTSIDE)))
        stats["bisected"] += int(np.count_nonzero(bisected))
        tested = np.repeat(bisected[undecided], 4)

    return Coverage(
        depth=depth,
        inside=RangeSet(inside_intervals),
        partial=RangeSet.from_ids(ids[bisected].tolist()),
        stats=stats,
    )
