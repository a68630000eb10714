"""Tests for repro.htm.cover — the coverage correctness contract.

The contract: ``inside`` trixels contain only in-region points, and every
in-region point falls in ``inside | partial``.  These hold for any region
at any depth; the property tests sweep random caps, bands, and Boolean
combinations.

The cover decides most trixels by their bounding caps and the rest in
one exact pass; :func:`reference_cover` walks the mesh one trixel at a
time with the scalar classifier instead, and the two must agree exactly
— on drawn regions, on regions at the mesh's edges and on the
benchmark's own regions.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from bench import config as bench_config
from bench import gen
from bench.probes import build_region
from repro.geometry.convex import Convex
from repro.geometry.coords import GALACTIC
from repro.geometry.halfspace import Halfspace
from repro.geometry.region import Region
from repro.geometry.shapes import circle_region, latitude_band, rect_region
from repro.geometry.vector import normalize, radec_to_vector, random_unit_vectors
from repro.htm import cover as cover_module
from repro.htm import trixel as trixel_module
from repro.htm.cover import (
    Classification,
    classify_trixel_halfspace,
    classify_trixel_region,
    cover_region,
)
from repro.htm.mesh import depth_id_bounds, lookup_ids_from_vectors, trixel_corners
from repro.htm.ranges import RangeSet
from repro.htm.trixel import BASE_TRIXELS, Trixel, base_trixel_vertices


def assert_coverage_exact(region, coverage, points):
    """The two safety invariants of a conservative cover."""
    ids = lookup_ids_from_vectors(points, coverage.depth)
    in_region = region.contains(points)
    in_inside = coverage.inside.contains_array(ids)
    in_candidates = coverage.candidates().contains_array(ids)
    # 1. No in-region point escapes the candidate set.
    assert bool(in_candidates[in_region].all())
    # 2. Inside-classified trixels contain no out-of-region points.
    assert bool(in_region[in_inside].all())


class TestCoverInvariants:
    @given(
        st.floats(min_value=0.0, max_value=359.0),
        st.floats(min_value=-85.0, max_value=85.0),
        st.floats(min_value=0.05, max_value=40.0),
        st.integers(min_value=2, max_value=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_cones(self, ra, dec, radius, depth):
        region = circle_region(ra, dec, radius)
        coverage = cover_region(region, depth)
        # Probe points concentrated around the cap boundary plus global.
        rng = np.random.default_rng(42)
        local_ra = rng.uniform(ra - 2 * radius, ra + 2 * radius, 400)
        local_dec = np.clip(rng.uniform(dec - 2 * radius, dec + 2 * radius, 400), -90, 90)
        points = np.vstack(
            [radec_to_vector(local_ra % 360.0, local_dec), random_unit_vectors(200, rng=rng)]
        )
        assert_coverage_exact(region, coverage, points)

    @given(
        st.floats(min_value=-60.0, max_value=50.0),
        st.floats(min_value=1.0, max_value=30.0),
        st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_latitude_bands(self, lat_min, width, depth):
        region = latitude_band(lat_min, lat_min + width)
        coverage = cover_region(region, depth)
        points = random_unit_vectors(800, rng=11)
        assert_coverage_exact(region, coverage, points)

    def test_figure4_crossed_bands(self):
        region = latitude_band(-10, 10) & latitude_band(20, 40, frame=GALACTIC)
        coverage = cover_region(region, 6)
        points = random_unit_vectors(3000, rng=3)
        assert_coverage_exact(region, coverage, points)
        assert coverage.stats["rejected"] > 0
        assert coverage.stats["accepted"] > 0

    def test_union_region(self):
        region = circle_region(10, 10, 5) | circle_region(200, -40, 8)
        coverage = cover_region(region, 5)
        points = random_unit_vectors(1500, rng=5)
        assert_coverage_exact(region, coverage, points)

    def test_difference_region(self):
        region = circle_region(50, 0, 10) - circle_region(50, 0, 5)
        coverage = cover_region(region, 6)
        rng = np.random.default_rng(9)
        ra = rng.uniform(35, 65, 800)
        dec = rng.uniform(-15, 15, 800)
        assert_coverage_exact(region, coverage, radec_to_vector(ra, dec))

    def test_large_cap_bigger_than_hemisphere(self):
        region = circle_region(0, 90, 120.0)
        coverage = cover_region(region, 4)
        points = random_unit_vectors(2000, rng=13)
        assert_coverage_exact(region, coverage, points)
        # A 120-degree cap covers 3/4 of the sphere: most trixels accepted.
        assert coverage.inside.count() > coverage.partial.count()


class TestCoverStructure:
    def test_full_sphere(self):
        coverage = cover_region(Region.full_sphere(), 3)
        lo, hi = depth_id_bounds(3)
        assert coverage.inside.count() == hi - lo
        assert coverage.partial.is_empty()

    def test_empty_region(self):
        coverage = cover_region(Region.empty(), 3)
        assert coverage.inside.is_empty()
        assert coverage.partial.is_empty()

    def test_depth_zero(self):
        coverage = cover_region(circle_region(10, 45, 5), 0)
        assert coverage.inside.count() + coverage.partial.count() >= 1

    def test_accepts_halfspace_and_convex(self):
        hs = Halfspace.from_cone(10, 10, 5)
        from_hs = cover_region(hs, 4)
        from_convex = cover_region(Convex([hs]), 4)
        from_region = cover_region(Region.from_halfspace(hs), 4)
        assert from_hs.inside == from_convex.inside == from_region.inside
        assert from_hs.partial == from_convex.partial == from_region.partial

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            cover_region("not a region", 4)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            cover_region(Region.full_sphere(), -1)

    def test_pruning_counts_consistent(self):
        coverage = cover_region(circle_region(0, 0, 2), 7)
        stats = coverage.stats
        assert stats["tested"] == stats["accepted"] + stats["rejected"] + stats["bisected"]
        # Pruning must touch far fewer nodes than the full tree.
        lo, hi = depth_id_bounds(7)
        full_tree_nodes = sum(8 * 4**d for d in range(8))
        assert stats["tested"] < full_tree_nodes / 50

    def test_deeper_cover_tightens(self):
        region = circle_region(30, 30, 3)
        shallow = cover_region(region, 4)
        deep = cover_region(region, 8)
        # Candidate area shrinks monotonically toward the true cap area.
        def candidate_area(coverage):
            total = 0.0
            lo, _hi = depth_id_bounds(coverage.depth)
            scale = 4.0 * np.pi / (8 * 4**coverage.depth)
            return coverage.candidates().count() * scale

        assert candidate_area(deep) < candidate_area(shallow)


class TestHalfspaceClassification:
    def test_small_cap_inside_trixel_is_partial(self):
        trixel = BASE_TRIXELS[4]  # N0
        center = trixel.center()
        hs = Halfspace(center, 0.99999)
        assert (
            classify_trixel_halfspace(trixel.corners, hs) is Classification.PARTIAL
        )

    def test_trixel_inside_large_cap(self):
        trixel = BASE_TRIXELS[4]
        hs = Halfspace(trixel.center(), 0.2)
        assert classify_trixel_halfspace(trixel.corners, hs) is Classification.INSIDE

    def test_trixel_outside_far_cap(self):
        trixel = BASE_TRIXELS[4]
        hs = Halfspace(-trixel.center(), 0.95)
        assert classify_trixel_halfspace(trixel.corners, hs) is Classification.OUTSIDE

    def test_full_halfspace(self):
        trixel = BASE_TRIXELS[0]
        hs = Halfspace([0, 0, 1], -1.5)
        assert classify_trixel_halfspace(trixel.corners, hs) is Classification.INSIDE

    def test_empty_halfspace(self):
        trixel = BASE_TRIXELS[0]
        hs = Halfspace([0, 0, 1], 1.5)
        assert classify_trixel_halfspace(trixel.corners, hs) is Classification.OUTSIDE

    def test_negative_offset_complement_inside(self):
        # Cap covering all but a small hole around -z; the S trixels near
        # the hole must not be classified INSIDE.
        hs = Halfspace([0, 0, 1], -0.999)
        hole_trixel_corners = trixel_corners(
            int(lookup_ids_from_vectors(np.array([[0.0, 0.0, -1.0]]), 3)[0])
        )
        verdict = classify_trixel_halfspace(hole_trixel_corners, hs)
        assert verdict is Classification.PARTIAL

    def test_region_or_semantics(self):
        trixel = BASE_TRIXELS[4]
        inside_clause = Region.from_halfspace(Halfspace(trixel.center(), 0.2))
        outside_clause = Region.from_halfspace(Halfspace(-trixel.center(), 0.95))
        union = inside_clause | outside_clause
        assert classify_trixel_region(trixel.corners, union) is Classification.INSIDE


# ----------------------------------------------------------------------
# the cover against the trixel-at-a-time walk
# ----------------------------------------------------------------------


def reference_cover(region, depth):
    """The model: the paper's recursion, one :class:`Trixel` and one call
    of the scalar :func:`classify_trixel_region` per node."""
    inside, partial = [], []
    stats = {"tested": 0, "accepted": 0, "rejected": 0, "bisected": 0}

    def visit(trixel, level):
        stats["tested"] += 1
        verdict = classify_trixel_region(trixel.corners, region)
        if verdict is Classification.OUTSIDE:
            stats["rejected"] += 1
        elif verdict is Classification.INSIDE:
            stats["accepted"] += 1
            inside.extend(RangeSet.from_subtree(trixel.htm_id, level, depth))
        else:
            stats["bisected"] += 1
            if level == depth:
                partial.append(trixel.htm_id)
            else:
                for child in trixel.children():
                    visit(child, level + 1)

    for root in BASE_TRIXELS:
        visit(root, 0)
    return RangeSet(inside), RangeSet.from_ids(partial), stats


def assert_same_as_reference(region, depth):
    coverage = cover_region(region, depth)
    inside, partial, stats = reference_cover(region, depth)
    assert coverage.inside == inside
    assert coverage.partial == partial
    assert coverage.stats == stats


#: every corner of the depth-2 mesh: the octahedron's six vertices, the
#: level-1 and level-2 edge midpoints (each on an edge one level up)
_MESH_POINTS = np.unique(
    np.concatenate(
        [trixel_corners(htm_id) for htm_id in range(*depth_id_bounds(2))]
    ),
    axis=0,
)
_OCTAHEDRON = np.concatenate([np.eye(3), -np.eye(3)])
#: cap offsets at the edges of the classifier's branches: a point (radius
#: 0), exactly a hemisphere, a hemisphere by way of cos(90 deg), caps
#: larger than a hemisphere, radius 180 (the full sphere), past 1 (empty)
_EDGE_OFFSETS = [1.0, 0.0, math.cos(math.radians(90.0)), -0.5, -0.999, -1.0, 1.0 + 1e-9]


def _vector(draw):
    kind = draw(st.sampled_from(["mesh", "radec", "wrap"]))
    if kind == "mesh":
        return _MESH_POINTS[draw(st.integers(0, len(_MESH_POINTS) - 1))]
    dec = draw(st.floats(-90.0, 90.0))
    if kind == "wrap":  # either side of RA 0 / 360
        return radec_to_vector(draw(st.sampled_from([0.0, 1e-9, 359.9999999])), dec)
    return radec_to_vector(draw(st.floats(0.0, 360.0)), dec)


@st.composite
def _halfspaces(draw):
    normal = _vector(draw)
    offset = draw(st.one_of(st.sampled_from(_EDGE_OFFSETS), st.floats(-1.0, 1.0)))
    return Halfspace(normal, offset)


def _caps():
    return _halfspaces().map(Region.from_halfspace)


@st.composite
def _bands(draw):
    lo, hi = sorted(draw(st.tuples(*[st.floats(-90.0, 90.0)] * 2)))
    frame = draw(st.sampled_from(["equatorial", GALACTIC]))
    return latitude_band(lo, hi, frame=frame)


@st.composite
def _rects(draw):
    """Coordinate rectangles, across RA 0 and wider than 180 degrees
    (then the wedge is two convexes)."""
    ra_min = draw(st.floats(0.0, 360.0))
    span = draw(st.one_of(st.floats(0.5, 359.0), st.sampled_from([180.0, 181.0])))
    dec_lo, dec_hi = sorted(draw(st.tuples(*[st.floats(-90.0, 90.0)] * 2)))
    return rect_region(ra_min, (ra_min + span) % 360.0, dec_lo, dec_hi)


@st.composite
def _polygons(draw):
    """A convex polygon as its hemispheres (what ``polygon_region``
    builds): 3-6 vertices in order on a small circle about a centre."""
    centre = _vector(draw)
    radius = math.radians(draw(st.floats(0.01, 60.0)))
    count = draw(st.integers(3, 6))
    east = np.cross([0.0, 0.0, 1.0], centre)
    if np.linalg.norm(east) < 1e-6:
        east = np.array([1.0, 0.0, 0.0])
    east = normalize(east)
    north = np.cross(centre, east)
    jitter = draw(st.lists(st.floats(0.0, 0.8), min_size=count, max_size=count))
    bearings = [(i + u) * 2 * math.pi / count for i, u in enumerate(jitter)]
    vertices = [
        math.cos(radius) * centre
        + math.sin(radius) * (math.cos(b) * east + math.sin(b) * north)
        for b in bearings
    ]
    halfspaces = []
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        normal = np.cross(a, b)
        if np.linalg.norm(normal) == 0.0:
            continue
        halfspaces.append(Halfspace(normal, 0.0))
    return Region.from_convex(Convex(halfspaces))


_SHAPES = st.one_of(
    _caps(),
    _bands(),
    _rects(),
    _polygons(),
    st.sampled_from([Region.empty(), Region.full_sphere()]),
)


@st.composite
def _regions(draw):
    first = draw(_SHAPES)
    how = draw(st.sampled_from(["one", "union", "difference"]))
    if how == "one":
        return first
    second = draw(_SHAPES)
    return first | second if how == "union" else first - second


class TestCrossingPoints:
    """The edge test's two candidates are where the cap's boundary meets
    the edge's great circle, on the sphere.  A point inside the sphere,
    between the true ones, can fall within an arc the boundary never
    reaches and make a false PARTIAL."""

    def test_a_trixel_far_from_a_large_caps_boundary_is_outside(self):
        # Corners at z >= 0.38; the cap z <= 0.30 misses them all, and
        # its boundary never reaches the trixel.
        corners = trixel_corners(774)
        assert corners[:, 2].min() > 0.38
        halfspace = Halfspace((0.0, 0.0, -1.0), -0.30163114762569454)
        assert classify_trixel_halfspace(corners, halfspace) is Classification.OUTSIDE
        verdict = cover_module._classify_level(
            corners[None], Region.from_halfspace(halfspace)
        )
        assert verdict.tolist() == [cover_module._OUTSIDE]

    @given(_halfspaces(), st.integers(0, 8 * 4**3 - 1), st.integers(0, 2))
    @settings(max_examples=200, deadline=None)
    # Two nearly parallel circles: 1 - (n.m)^2 cancels where |n x m|^2
    # does not, and cost the points 1.5e-9 of their norm.
    @example(Halfspace([0.9999999907038141, 0.00013635384738953343, 0.0], 0.0), 20, 2)
    def test_every_candidate_lies_on_both_circles(self, halfspace, row, edge):
        corners = cover_module._mesh_top()[3][0][row]
        pole = normalize(np.cross(corners[edge], corners[(edge + 1) % 3]))
        scalar = cover_module._cap_boundary_points(halfspace, pole)
        rows, met = cover_module._cap_boundary_points_rows(halfspace, pole[None])
        assert bool(met[0]) == (len(scalar) == 2)
        for point in [*scalar, *rows[:, 0][met[0].repeat(2)]]:
            assert np.linalg.norm(point) == pytest.approx(1.0, abs=1e-9)
            assert point @ halfspace.normal == pytest.approx(halfspace.offset, abs=1e-9)
            assert point @ pole == pytest.approx(0.0, abs=1e-9)

    def test_a_small_rect_has_four_partial_trixels(self):
        coverage = cover_region(rect_region(219.3101, 219.7931, 17.314, 17.5556), 6)
        assert coverage.partial.count() == 4

    def test_a_band_has_eight_hundred_partial_trixels(self):
        assert cover_region(latitude_band(20.0, 21.5), 6).partial.count() == 800


class TestCoverEqualsTheReferenceWalk:
    @given(_regions(), st.integers(min_value=0, max_value=8))
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_drawn_regions(self, region, depth):
        # The walk costs ~50 us a node: leave the widest shapes at the
        # deepest levels (tens of thousands of nodes) to the tests below.
        assume(cover_region(region, depth).stats["tested"] <= 2000)
        assert_same_as_reference(region, depth)

    @pytest.mark.parametrize("depth", [0, 2, 5])
    @pytest.mark.parametrize("offset", _EDGE_OFFSETS)
    def test_caps_centred_on_the_mesh(self, offset, depth):
        """Centres on every octahedron vertex (the poles among them) and
        on a level-1 and a level-2 midpoint, at every edge offset."""
        level1 = normalize(_OCTAHEDRON[0] + _OCTAHEDRON[1])
        level2 = normalize(level1 + _OCTAHEDRON[2])
        for centre in [*_OCTAHEDRON, level1, level2]:
            assert_same_as_reference(
                Region.from_halfspace(Halfspace(centre, offset)), depth
            )

    @pytest.mark.parametrize(
        "region",
        [
            circle_region(0.0, 0.0, 3.0),
            circle_region(359.9999, 10.0, 3.0),
            circle_region(0.0, 90.0, 0.0),
            circle_region(45.0, -90.0, 90.0),
            circle_region(120.0, 30.0, 180.0),
            rect_region(350.0, 10.0, -5.0, 5.0),
            rect_region(10.0, 250.0, -30.0, 60.0),
            latitude_band(-90.0, -89.0),
            Region.empty(),
            Region.full_sphere(),
        ],
    )
    def test_regions_at_the_edges(self, region):
        assert_same_as_reference(region, 6)

    @pytest.mark.parametrize("workload", ["cone_search", "cluster_gather"])
    def test_the_benchmarks_regions(self, workload):
        """200 regions from the benchmark's own generator, at its depth."""
        ops = getattr(gen, workload)(gen.make_rng(11, workload))
        specs = (op.region for op in ops if op.region is not None)
        for spec in itertools.islice(specs, 200):
            assert_same_as_reference(build_region(spec), bench_config.HTM_DEPTH)


class TestBoundingCaps:
    """A trixel the bounding caps decide gets the scalar classifier's
    verdict: the caps only skip work, they never change an answer."""

    @given(_regions())
    @settings(max_examples=20, deadline=None)
    def test_a_decided_trixel_has_the_scalar_verdict(self, region):
        # The scalar test costs ~60 us a halfspace and levels 0-4 hold
        # 2 728 trixels: leave the widest differences (32 convexes, 192
        # halfspaces) to the cover's own equality tests.
        assume(sum(len(convex.halfspaces) for convex in region) <= 16)
        codes = {
            Classification.OUTSIDE: cover_module._OUTSIDE,
            Classification.INSIDE: cover_module._INSIDE,
        }
        for corners, centres, radii in cover_module._mesh_top()[:5]:
            verdict = cover_module._cap_verdicts(centres, radii, region)
            for row in np.flatnonzero(verdict != cover_module._PARTIAL):
                expected = classify_trixel_region(corners[row], region)
                assert codes.get(expected) == verdict[row]


class TestLevelPassCost:
    """Counts that do not depend on the box: a cover builds no Trixel
    and runs the exact classifier once, over the trixels the bounding
    caps leave undecided."""

    def test_a_band_constructs_no_trixel(self, monkeypatch):
        built = []
        init = Trixel.__init__
        monkeypatch.setattr(
            Trixel,
            "__init__",
            lambda self, *args: built.append(args[0]) or init(self, *args),
        )
        coverage = cover_region(latitude_band(20.0, 21.5), 6)
        assert built == []
        # The node-by-node recursion tests these nodes too.
        assert coverage.stats["tested"] == 2120

    @given(_regions(), st.integers(min_value=0, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_one_exact_pass_over_the_undecided_trixels(self, region, depth):
        calls = []
        classify = cover_module._classify_level
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                cover_module,
                "_classify_level",
                lambda corners, region: calls.append(corners)
                or classify(corners, region),
            )
            cover_region(region, depth)
        assert len(calls) <= 1
        for corners in calls:
            caps = cover_module._bounding_caps(corners)
            verdict = cover_module._cap_verdicts(*caps, region)
            assert (verdict == cover_module._PARTIAL).all()

    def test_children_are_bit_identical_to_trixel_children(self):
        def midpoint(a, b):
            total = a + b
            return total / np.sqrt(np.sum(total * total, axis=-1, keepdims=True))

        def subdivide(corners):
            v0, v1, v2 = corners[:, 0], corners[:, 1], corners[:, 2]
            w0, w1, w2 = midpoint(v1, v2), midpoint(v0, v2), midpoint(v0, v1)
            children = [(v0, w2, w1), (v1, w0, w2), (v2, w1, w0), (w0, w1, w2)]
            return np.stack([np.stack(child, axis=1) for child in children], axis=1)

        trixels = list(BASE_TRIXELS)
        corners, ids = base_trixel_vertices(), np.arange(8, 16)
        expected = corners
        for level in range(1, 5):
            trixels = [child for trixel in trixels for child in trixel.children()]
            corners, ids = trixel_module._children(corners, ids)
            expected = subdivide(expected).reshape(-1, 3, 3)
            assert ids.tolist() == [trixel.htm_id for trixel in trixels]
            assert corners.tobytes() == expected.tobytes()
            assert np.stack([t.corners for t in trixels]).tobytes() == expected.tobytes()
            assert cover_module._mesh_top()[level][0].tobytes() == expected.tobytes()

    def test_the_table_of_the_top_levels_is_small(self):
        tables = cover_module._mesh_top()
        assert len(tables) == cover_module._TABLE_DEPTH + 1
        assert sum(table.nbytes for level in tables for table in level) <= 5e6


@pytest.mark.slow
class TestLongExactness:
    """``make test-cover``: the cover against the walk over many more
    drawn regions than tier-1 draws, and over the benchmark's regions."""

    # 2 000 regions in all, in eight tests: each stays well inside the
    # suite's per-test timeout.
    @pytest.mark.parametrize("depth", range(8))
    @given(region=_regions())
    @settings(
        max_examples=250,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    def test_drawn_regions(self, depth, region):
        assume(cover_region(region, depth).stats["tested"] <= 5000)
        assert_same_as_reference(region, depth)

    @pytest.mark.parametrize("seed", range(11, 21))
    @pytest.mark.parametrize("workload", ["cone_search", "cluster_gather"])
    def test_the_benchmarks_regions(self, workload, seed):
        ops = getattr(gen, workload)(gen.make_rng(seed, workload))
        specs = (op.region for op in ops if op.region is not None)
        for spec in itertools.islice(specs, 200):
            assert_same_as_reference(build_region(spec), bench_config.HTM_DEPTH)

    @pytest.mark.parametrize("seed", range(11, 21))
    def test_the_remote_tenants_regions(self, seed):
        ops = gen.remote_texts(gen.make_rng(seed, "remote_tenants"))
        specs = [op.region for op in ops if op.region is not None]
        assert specs
        for spec in specs:
            assert_same_as_reference(build_region(spec), bench_config.HTM_DEPTH)
