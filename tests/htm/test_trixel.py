"""Tests for repro.htm.trixel."""

import math

import numpy as np
import pytest

from repro.geometry.vector import radec_to_vector, random_unit_vectors
from repro.htm.trixel import BASE_TRIXELS, Trixel, base_trixel_vertices


class TestBaseTrixels:
    def test_eight_roots(self):
        assert len(BASE_TRIXELS) == 8
        assert [t.htm_id for t in BASE_TRIXELS] == list(range(8, 16))

    def test_roots_partition_sphere(self):
        points = random_unit_vectors(2000, rng=0)
        membership = np.stack([t.contains(points) for t in BASE_TRIXELS])
        # Every point is in at least one root (edges may land in two).
        assert bool(membership.any(axis=0).all())

    def test_root_areas_equal(self):
        areas = [t.area_sr() for t in BASE_TRIXELS]
        np.testing.assert_allclose(areas, 4.0 * math.pi / 8.0, rtol=1e-12)

    def test_orientation_positive(self):
        for trixel in BASE_TRIXELS:
            v0, v1, v2 = trixel.corners
            assert float(np.dot(v0, np.cross(v1, v2))) > 0


class TestSubdivision:
    def test_four_children_ids(self):
        parent = BASE_TRIXELS[0]
        children = parent.children()
        assert [c.htm_id for c in children] == [32, 33, 34, 35]

    def test_children_cover_parent(self):
        parent = BASE_TRIXELS[3]
        children = parent.children()
        points = random_unit_vectors(5000, rng=1)
        inside_parent = parent.contains(points)
        inside_any_child = np.zeros(len(points), dtype=bool)
        for child in children:
            inside_any_child |= child.contains(points)
        # Child union may slightly exceed the parent near curved edges is
        # impossible (children are inside); but every parent point must be
        # in some child.
        assert bool(inside_any_child[inside_parent].all())

    def test_children_areas_sum_to_parent(self):
        parent = BASE_TRIXELS[5]
        total = sum(c.area_sr() for c in parent.children())
        assert total == pytest.approx(parent.area_sr(), rel=1e-12)

    def test_children_roughly_equal_areas(self):
        # "divided into 4 sub-triangles of approximately equal areas": the
        # middle child of an octahedron face is ~1.6x its siblings, and
        # the ratio converges toward 1 as trixels flatten with depth.
        def ratio(trixel):
            areas = [c.area_sr() for c in trixel.children()]
            return max(areas) / min(areas)

        level0_ratio = ratio(BASE_TRIXELS[0])
        assert level0_ratio < 2.0
        deep = BASE_TRIXELS[0]
        for _ in range(5):
            deep = deep.children()[0]
        assert ratio(deep) < 1.1 < level0_ratio

    def test_depth_property(self):
        trixel = BASE_TRIXELS[0]
        assert trixel.depth == 0
        child = trixel.children()[2]
        assert child.depth == 1
        assert child.children()[0].depth == 2

    def test_middle_child_inside_parent(self):
        parent = BASE_TRIXELS[2]
        middle = parent.children()[3]
        assert bool(parent.contains(middle.center()))


class TestTrixelGeometry:
    def test_center_inside(self):
        for trixel in BASE_TRIXELS:
            assert bool(trixel.contains(trixel.center()))

    def test_contains_vectorized(self):
        trixel = BASE_TRIXELS[0]
        points = random_unit_vectors(100, rng=2)
        mask = trixel.contains(points)
        assert mask.shape == (100,)

    def test_area_sqdeg(self):
        total = sum(t.area_sqdeg() for t in BASE_TRIXELS)
        assert total == pytest.approx(41252.96, rel=1e-4)

    def test_invalid_corner_shape(self):
        with pytest.raises(ValueError):
            Trixel(8, np.eye(2))

    def test_wrong_orientation_rejected(self):
        corners = base_trixel_vertices()[0][::-1].copy()
        with pytest.raises(ValueError):
            Trixel(8, corners)

    def test_equality_by_id(self):
        a = BASE_TRIXELS[0]
        b = Trixel(8, base_trixel_vertices()[0])
        assert a == b
        assert hash(a) == hash(b)

    def test_repr_contains_name(self):
        assert "S0" in repr(BASE_TRIXELS[0])
