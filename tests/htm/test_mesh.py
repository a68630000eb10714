"""Tests for repro.htm.mesh.

Point location descends through the mesh table's edge normals;
:func:`reference_lookup`, a walk that derives every point's corners,
midpoints and edge normals level by level, must file every point in the
same trixel — drawn points, the table's corners and edge midpoints,
points a hair off an edge and the points no strict test takes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench import catalog as bench_catalog
from bench import config as bench_config
from repro.catalog import SkySimulator, SurveyParameters
from repro.geometry.vector import normalize, radec_to_vector, random_unit_vectors
from repro.htm import mesh as mesh_module
from repro.htm.mesh import (
    children_of,
    depth_id_bounds,
    id_depth,
    id_to_name,
    lookup_id,
    lookup_ids,
    lookup_ids_from_vectors,
    name_to_id,
    parent_of,
    trixel_corners,
    trixel_count_at_depth,
    trixel_from_id,
)
from repro.htm.trixel import BASE_TRIXELS, Trixel, base_trixel_vertices

ras = st.floats(min_value=0.0, max_value=359.999)
decs = st.floats(min_value=-89.999, max_value=89.999)
depths = st.integers(min_value=0, max_value=8)


class TestIdScheme:
    def test_root_bounds(self):
        assert depth_id_bounds(0) == (8, 16)

    def test_depth_one_bounds(self):
        assert depth_id_bounds(1) == (32, 64)

    def test_count(self):
        assert trixel_count_at_depth(0) == 8
        assert trixel_count_at_depth(3) == 8 * 64

    def test_children(self):
        assert children_of(8) == [32, 33, 34, 35]

    def test_parent(self):
        assert parent_of(33) == 8
        assert parent_of(8) is None

    @given(st.integers(min_value=8, max_value=15), depths)
    @settings(max_examples=60, deadline=None)
    def test_depth_of_descendants(self, root, depth):
        node = root
        for _ in range(depth):
            node = node * 4 + 3
        assert id_depth(node) == depth

    def test_invalid_ids_rejected(self):
        for bad in (0, 1, 7, 16, 17, 31):
            with pytest.raises(ValueError):
                id_depth(bad)

    def test_depth_bounds_validation(self):
        with pytest.raises(ValueError):
            depth_id_bounds(-1)
        with pytest.raises(ValueError):
            depth_id_bounds(99)


class TestNames:
    @pytest.mark.parametrize(
        "htm_id,name",
        [(8, "S0"), (11, "S3"), (12, "N0"), (15, "N3"), (32, "S00"), (63, "N33")],
    )
    def test_known_names(self, htm_id, name):
        assert id_to_name(htm_id) == name
        assert name_to_id(name) == htm_id

    @given(st.integers(min_value=8, max_value=15), st.lists(st.integers(0, 3), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, root, digits):
        htm_id = root
        for d in digits:
            htm_id = htm_id * 4 + d
        assert name_to_id(id_to_name(htm_id)) == htm_id

    def test_bad_names(self):
        for bad in ("X0", "N", "N4", "S0 1", "n0q"):
            with pytest.raises(ValueError):
                name_to_id(bad)

    def test_case_insensitive(self):
        assert name_to_id("n012") == name_to_id("N012")


class TestLookup:
    @given(ras, decs, depths)
    @settings(max_examples=150, deadline=None)
    def test_point_inside_its_trixel(self, ra, dec, depth):
        htm_id = lookup_id(ra, dec, depth)
        lo, hi = depth_id_bounds(depth)
        assert lo <= htm_id < hi
        trixel = trixel_from_id(htm_id)
        assert bool(trixel.contains(radec_to_vector(ra, dec)))

    @given(ras, decs)
    @settings(max_examples=60, deadline=None)
    def test_deeper_is_descendant(self, ra, dec):
        shallow = lookup_id(ra, dec, 3)
        deep = lookup_id(ra, dec, 6)
        assert deep >> (2 * 3) == shallow

    def test_vectorized_matches_scalar(self, rng):
        ra = rng.uniform(0, 360, 50)
        dec = rng.uniform(-89, 89, 50)
        batch = lookup_ids(ra, dec, 7)
        singles = np.array([lookup_id(r, d, 7) for r, d in zip(ra, dec)])
        np.testing.assert_array_equal(batch, singles)

    def test_all_points_assigned(self, rng):
        points = random_unit_vectors(5000, rng=rng)
        ids = lookup_ids_from_vectors(points, 5)
        lo, hi = depth_id_bounds(5)
        assert bool(((ids >= lo) & (ids < hi)).all())

    def test_poles_and_seams(self):
        # Exact poles, RA 0 seam, octant corners: all must resolve.
        ra = np.array([0.0, 0.0, 90.0, 180.0, 270.0, 0.0, 45.0])
        dec = np.array([90.0, -90.0, 0.0, 0.0, 0.0, 0.0, 35.0])
        ids = lookup_ids(ra, dec, 6)
        lo, hi = depth_id_bounds(6)
        assert bool(((ids >= lo) & (ids < hi)).all())

    def test_deterministic_on_edges(self):
        # The same edge point always maps to the same trixel.
        first = lookup_id(0.0, 0.0, 8)
        for _ in range(5):
            assert lookup_id(0.0, 0.0, 8) == first

    def test_depth_zero(self):
        assert lookup_id(10.0, 45.0, 0) in range(8, 16)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            lookup_ids(np.array([0.0]), np.array([0.0]), 99)


def descend(htm_id):
    """The trixel of ``htm_id`` by :meth:`Trixel.children` from its root,
    one digit at a time."""
    digits = []
    while htm_id >= 16:
        digits.append(htm_id & 3)
        htm_id >>= 2
    trixel = BASE_TRIXELS[htm_id - 8]
    for digit in reversed(digits):
        trixel = trixel.children()[digit]
    return trixel


class TestTrixelCorners:
    """:func:`trixel_corners` reads the mesh table, and subdivides on
    below it: bit for bit the corners the index and a descent by
    :meth:`Trixel.children` use."""

    @given(ras, decs, depths)
    @settings(max_examples=60, deadline=None)
    def test_fast_corners_match_walk(self, ra, dec, depth):
        htm_id = lookup_id(ra, dec, depth)
        assert trixel_corners(htm_id).tobytes() == descend(htm_id).corners.tobytes()

    def test_every_table_row(self):
        for level, (corners, _, _) in enumerate(mesh_module._mesh_top()):
            lo, hi = depth_id_bounds(level)
            rows = np.stack([trixel_corners(htm_id) for htm_id in range(lo, hi)])
            assert rows.tobytes() == corners.tobytes()

    def test_corners_unit(self):
        corners = trixel_corners(name_to_id("N3123"))
        np.testing.assert_allclose(np.linalg.norm(corners, axis=1), 1.0)


def reference_lookup(xyz, depth):
    """Point location by a walk that derives, for every point and level,
    its trixel's edge midpoints and each child's edge normals with
    ``np.cross``: the rule the table descent must reproduce exactly."""
    xyz = np.asarray(xyz, dtype=np.float64)
    if xyz.ndim == 1:
        xyz = xyz[None, :]
    n = xyz.shape[0]

    base = base_trixel_vertices()  # (8, 3, 3)
    ids = np.full(n, -1, dtype=np.int64)
    corners = np.empty((n, 3, 3))

    # Root assignment by explicit containment test, in root order.
    assigned = np.zeros(n, dtype=bool)
    for k in range(8):
        trixel = Trixel(8 + k, base[k])
        mask = (~assigned) & trixel.contains(xyz)
        if np.any(mask):
            ids[mask] = 8 + k
            corners[mask] = base[k]
            assigned |= mask
    if not np.all(assigned):
        # Numerically pathological points: the nearest root center.
        leftovers = np.nonzero(~assigned)[0]
        centers = base.mean(axis=1)
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        nearest = np.argmax(xyz[leftovers] @ centers.T, axis=1)
        ids[leftovers] = 8 + nearest
        corners[leftovers] = base[nearest]

    for _ in range(depth):
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
        )
        chosen = np.full(n, 3, dtype=np.int64)  # default: middle child
        undecided = np.ones(n, dtype=bool)
        for child_index, (a, b, c) in enumerate(child_corner_sets):
            inside = (
                (np.sum(xyz * np.cross(a, b), axis=1) >= 0.0)
                & (np.sum(xyz * np.cross(b, c), axis=1) >= 0.0)
                & (np.sum(xyz * np.cross(c, a), axis=1) >= 0.0)
            )
            take = undecided & inside
            chosen[take] = child_index
            undecided &= ~take

        # The remainder should be the middle child; where its strict
        # test rejects a point too, the child whose worst edge-plane
        # deviation is smallest.
        rest = np.nonzero(undecided)[0]
        if rest.size:
            all_sets = child_corner_sets + ((w0, w1, w2),)
            sub = xyz[rest]
            ma, mb, mc = (arr[rest] for arr in all_sets[3])
            inside_middle = (
                (np.sum(sub * np.cross(ma, mb), axis=1) >= 0.0)
                & (np.sum(sub * np.cross(mb, mc), axis=1) >= 0.0)
                & (np.sum(sub * np.cross(mc, ma), axis=1) >= 0.0)
            )
            bad = rest[~inside_middle]
            if bad.size:
                sub = xyz[bad]
                worst = np.empty((4, bad.size))
                for child_index, corner_set in enumerate(all_sets):
                    a, b, c = (arr[bad] for arr in corner_set)
                    worst[child_index] = np.minimum(
                        np.minimum(
                            np.sum(sub * np.cross(a, b), axis=1),
                            np.sum(sub * np.cross(b, c), axis=1),
                        ),
                        np.sum(sub * np.cross(c, a), axis=1),
                    )
                chosen[bad] = np.argmax(worst, axis=0)

        new_corners = np.empty_like(corners)
        for child_index, (a, b, c) in enumerate(child_corner_sets):
            mask = chosen == child_index
            new_corners[mask, 0] = a[mask]
            new_corners[mask, 1] = b[mask]
            new_corners[mask, 2] = c[mask]
        mask = chosen == 3
        new_corners[mask, 0] = w0[mask]
        new_corners[mask, 1] = w1[mask]
        new_corners[mask, 2] = w2[mask]

        corners = new_corners
        ids = ids * 4 + chosen

    return ids


def assert_same_as_reference(points, depth):
    np.testing.assert_array_equal(
        lookup_ids_from_vectors(points, depth), reference_lookup(points, depth)
    )


def mesh_points(levels):
    """Every corner and edge midpoint of the table's trixels at
    ``levels``, as the table's own arithmetic computes them."""
    points = []
    for level in levels:
        corners = mesh_module._mesh_top()[level][0]
        midpoints = normalize(corners + corners[:, [1, 2, 0]])
        points += [corners.reshape(-1, 3), midpoints.reshape(-1, 3)]
    return np.concatenate(points)


def off_edge_points(level, offsets, rng, count=4000):
    """Points on drawn edges of the table's trixels at ``level`` (a
    normalised blend of the two ends), moved ``offsets`` off the edge's
    great circle along its unit normal."""
    corners = mesh_module._mesh_top()[level][0]
    rows = rng.integers(0, len(corners), count)
    edges = rng.integers(0, 3, count)
    a = corners[rows, edges]
    b = corners[rows, (edges + 1) % 3]
    on_edge = normalize(a + rng.uniform(0.0, 1.0, (count, 1)) * (b - a))
    normal = normalize(np.cross(a, b))
    return np.concatenate([normalize(on_edge + off * normal) for off in offsets])


@pytest.fixture()
def settle_calls(monkeypatch):
    """The rows of every call to the lookup's fallback."""
    calls = []
    settle = mesh_module._settle

    def spy(points, children):
        calls.append(len(points))
        return settle(points, children)

    monkeypatch.setattr(mesh_module, "_settle", spy)
    return calls


class TestTheTableDescentEqualsTheWalk:
    @pytest.mark.parametrize("depth", range(11))
    def test_drawn_points(self, depth):
        points = random_unit_vectors(20000, rng=np.random.default_rng(depth))
        assert_same_as_reference(points, depth)

    @given(
        st.lists(st.tuples(ras, decs), min_size=1, max_size=50),
        st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_drawn_positions(self, positions, depth):
        ra, dec = np.array(positions).T
        assert_same_as_reference(radec_to_vector(ra, dec), depth)

    @pytest.mark.parametrize("depth", range(11))
    def test_the_corners_and_midpoints_of_the_top_levels(self, depth):
        assert_same_as_reference(mesh_points(range(4)), depth)

    def test_the_corners_and_midpoints_of_every_table_level(self):
        assert_same_as_reference(mesh_points(range(7)), 6)

    @pytest.mark.parametrize("depth", [0, 3, 6, 7, 10])
    @pytest.mark.parametrize("level", [0, 2, 5, 6])
    def test_points_a_hair_off_an_edge(self, level, depth):
        rng = np.random.default_rng(100 * level + depth)
        points = off_edge_points(level, (-1e-15, 0.0, 1e-15), rng)
        assert_same_as_reference(points, depth)

    @pytest.mark.parametrize("depth", [1, 6, 10])
    def test_the_fallback_path(self, depth, settle_calls):
        # Mesh vertices are where every strict child test can fail by an
        # ulp; a NaN fails every test, and a zero vector passes them all.
        vertices = mesh_points([min(depth - 1, 5)])
        points = np.concatenate([vertices, [[np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]]])
        assert_same_as_reference(points, depth)
        assert sum(settle_calls) > 0

    @pytest.mark.parametrize("depth", [0, 6, 10])
    def test_no_row_and_one_row(self, depth):
        assert lookup_ids_from_vectors(np.empty((0, 3)), depth).shape == (0,)
        point = random_unit_vectors(1, rng=np.random.default_rng(depth))[0]
        assert_same_as_reference(point, depth)

    def test_the_catalog_at_its_store_and_index_depths(self):
        photo = SkySimulator(
            SurveyParameters(n_galaxies=3000, n_stars=1500, n_quasars=100, seed=11)
        ).generate()
        points = photo.positions_xyz()
        for depth in (bench_config.HTM_DEPTH, bench_config.CATALOG_INDEX_DEPTH):
            assert_same_as_reference(points, depth)

    def test_the_tables_are_small_and_read_only(self):
        roots, tolerance, levels = mesh_module._mesh_planes()
        assert len(levels) == mesh_module._TABLE_DEPTH
        assert sum(planes.nbytes for planes in levels) <= 2.5e6
        for planes in levels:
            assert not planes.flags.writeable


@pytest.mark.slow
class TestLongLookupExactness:
    """``make test-cover``: the table descent against the walk over far
    more points than tier-1 draws."""

    @pytest.mark.parametrize("depth", range(11))
    def test_every_corner_and_midpoint_of_the_table(self, depth):
        assert_same_as_reference(mesh_points(range(7)), depth)

    @pytest.mark.parametrize("depth", range(11))
    def test_drawn_points(self, depth):
        rng = np.random.default_rng(1000 + depth)
        for _ in range(4):
            assert_same_as_reference(random_unit_vectors(100_000, rng=rng), depth)

    @pytest.mark.parametrize("depth", range(11))
    def test_points_off_every_table_level_s_edges(self, depth):
        rng = np.random.default_rng(2000 + depth)
        for level in range(7):
            offsets = (-1e-13, -1e-15, -1e-16, 0.0, 1e-16, 1e-15, 1e-13)
            assert_same_as_reference(off_edge_points(level, offsets, rng), depth)

    def test_the_benchmark_catalog(self):
        parameters = SurveyParameters(**bench_catalog.catalog_parameters())
        points = SkySimulator(parameters).generate().positions_xyz()
        for depth in (0, 3, 6, 8, 10):
            assert_same_as_reference(points, depth)


@pytest.mark.slow
class TestLongCornerExactness:
    """``make test-cover``: below the table, :func:`trixel_corners`
    against the :meth:`Trixel.children` descent."""

    @pytest.mark.parametrize("depth", range(7, 13))
    def test_drawn_ids(self, depth):
        rng = np.random.default_rng(3000 + depth)
        for htm_id in rng.integers(*depth_id_bounds(depth), size=2000).tolist():
            assert trixel_corners(htm_id).tobytes() == descend(htm_id).corners.tobytes()
