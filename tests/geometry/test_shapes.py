"""Tests for repro.geometry.shapes."""

import numpy as np
import pytest

from repro.geometry.coords import GALACTIC
from repro.geometry.distance import angular_separation
from repro.geometry.shapes import (
    circle_region,
    latitude_band,
    longitude_wedge,
    polygon_region,
    rect_region,
)
from repro.geometry.vector import (
    radec_to_vector,
    random_unit_vectors,
    tangent_basis,
    vector_to_radec,
)


class TestCircle:
    def test_membership_matches_separation(self, rng):
        region = circle_region(120.0, -35.0, 2.5)
        ra = rng.uniform(115, 125, 400)
        dec = rng.uniform(-40, -30, 400)
        expected = angular_separation(ra, dec, 120.0, -35.0) <= 2.5
        actual = region.contains(radec_to_vector(ra, dec))
        np.testing.assert_array_equal(actual, expected)

    def test_full_circle(self):
        region = circle_region(0.0, 0.0, 180.0)
        points = random_unit_vectors(100, rng=0)
        assert bool(region.contains(points).all())


class TestLatitudeBand:
    def test_equatorial_band(self, rng):
        region = latitude_band(-10.0, 10.0)
        ra = rng.uniform(0, 360, 500)
        dec = rng.uniform(-90, 90, 500)
        expected = (dec >= -10.0) & (dec <= 10.0)
        np.testing.assert_array_equal(
            region.contains(radec_to_vector(ra, dec)), expected
        )

    def test_galactic_band(self, rng):
        region = latitude_band(-5.0, 5.0, frame=GALACTIC)
        points = random_unit_vectors(500, rng=rng)
        _l, b = GALACTIC.lonlat(points)
        expected = (np.atleast_1d(b) >= -5.0) & (np.atleast_1d(b) <= 5.0)
        np.testing.assert_array_equal(region.contains(points), expected)

    def test_polar_cap(self):
        region = latitude_band(60.0, 90.0)
        assert bool(region.contains(radec_to_vector(123.0, 75.0)))
        assert not bool(region.contains(radec_to_vector(123.0, 45.0)))

    def test_whole_range_is_full_sphere(self):
        region = latitude_band(-90.0, 90.0)
        points = random_unit_vectors(50, rng=1)
        assert bool(region.contains(points).all())

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            latitude_band(10.0, -10.0)

    def test_crossed_bands_figure4(self, rng):
        # The paper's Figure 4: a latitude range in one frame AND a
        # latitude constraint in another.
        query = latitude_band(-15, 15) & latitude_band(30, 60, frame=GALACTIC)
        points = random_unit_vectors(2000, rng=rng)
        _ra, dec = vector_to_radec(points)
        _l, b = GALACTIC.lonlat(points)
        expected = (
            (np.atleast_1d(dec) >= -15)
            & (np.atleast_1d(dec) <= 15)
            & (np.atleast_1d(b) >= 30)
            & (np.atleast_1d(b) <= 60)
        )
        np.testing.assert_array_equal(query.contains(points), expected)


class TestLongitudeWedge:
    @pytest.mark.parametrize(
        "lon_min,lon_max",
        [(10.0, 40.0), (300.0, 40.0), (0.0, 180.0), (10.0, 250.0)],
    )
    def test_wedge_membership(self, lon_min, lon_max, rng):
        region = longitude_wedge(lon_min, lon_max)
        ra = rng.uniform(0, 360, 600)
        dec = rng.uniform(-80, 80, 600)
        span = (lon_max - lon_min) % 360.0
        offset = (ra - lon_min) % 360.0
        expected = offset <= span
        actual = region.contains(radec_to_vector(ra, dec))
        # Boundary meridians may flip either way in floating point; give
        # a one-in-six-hundred tolerance for exact-boundary draws.
        assert (actual == expected).mean() > 0.995

    def test_narrow_wedge_excludes_far_side(self):
        region = longitude_wedge(10.0, 20.0)
        assert bool(region.contains(radec_to_vector(15.0, 0.0)))
        assert not bool(region.contains(radec_to_vector(200.0, 0.0)))


class TestRect:
    def test_membership(self, rng):
        region = rect_region(20.0, 60.0, -10.0, 25.0)
        ra = rng.uniform(0, 90, 500)
        dec = rng.uniform(-30, 45, 500)
        expected = (ra >= 20) & (ra <= 60) & (dec >= -10) & (dec <= 25)
        actual = region.contains(radec_to_vector(ra, dec))
        assert (actual == expected).mean() > 0.995

    def test_ra_wraparound(self):
        region = rect_region(350.0, 10.0, -5.0, 5.0)
        assert bool(region.contains(radec_to_vector(355.0, 0.0)))
        assert bool(region.contains(radec_to_vector(5.0, 0.0)))
        assert not bool(region.contains(radec_to_vector(180.0, 0.0)))

    def test_invalid_dec_order(self):
        with pytest.raises(ValueError):
            rect_region(0.0, 10.0, 20.0, 10.0)


class TestPolygon:
    TRIANGLE = [(0.0, 0.0), (10.0, 0.0), (5.0, 8.0)]

    def test_contains_interior(self):
        region = polygon_region(self.TRIANGLE)
        assert bool(region.contains(radec_to_vector(5.0, 2.0)))

    def test_excludes_exterior(self):
        region = polygon_region(self.TRIANGLE)
        assert not bool(region.contains(radec_to_vector(5.0, -2.0)))
        assert not bool(region.contains(radec_to_vector(180.0, 0.0)))

    def test_winding_insensitive(self):
        forward = polygon_region(self.TRIANGLE)
        backward = polygon_region(list(reversed(self.TRIANGLE)))
        points = random_unit_vectors(300, rng=3)
        np.testing.assert_array_equal(
            forward.contains(points), backward.contains(points)
        )

    def test_quad(self):
        region = polygon_region([(0, 0), (8, 0), (8, 6), (0, 6)])
        assert bool(region.contains(radec_to_vector(4.0, 3.0)))
        assert not bool(region.contains(radec_to_vector(12.0, 3.0)))

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            polygon_region([(0, 0), (1, 0)])

    def test_nonconvex_rejected(self):
        with pytest.raises(ValueError):
            polygon_region([(0, 0), (10, 0), (1, 1), (0, 10)])

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            polygon_region([(0, 0), (5, 0), (10, 0)])

    @staticmethod
    def drawn_polygon(rng, count, reflex=False):
        """``count`` vertices on a small circle of radius 0.2-5 degrees,
        in bearing order (convex); with ``reflex`` evenly spaced, and one
        of them pulled in to a fifth of the radius, inside the chord of
        its neighbours for 5 or more vertices (a reflex vertex)."""
        centre = random_unit_vectors(1, rng=rng)[0]
        east, north = tangent_basis(centre)
        radius = np.radians(rng.uniform(0.2, 5.0))
        jitter = 0.0 if reflex else 0.5 * rng.random(count)
        bearings = (np.arange(count) + jitter) * 2 * np.pi / count
        radii = np.full(count, radius)
        if reflex:
            radii[rng.integers(count)] *= 0.2
        offsets = np.cos(bearings)[:, None] * north + np.sin(bearings)[:, None] * east
        points = np.cos(radii)[:, None] * centre + np.sin(radii)[:, None] * offsets
        return list(zip(*vector_to_radec(points)))

    def test_drawn_convex_polygons_are_accepted(self, rng):
        accepted = 0
        for _ in range(300):
            try:
                polygon_region(self.drawn_polygon(rng, int(rng.integers(3, 8))))
            except ValueError:
                continue
            accepted += 1
        assert accepted >= 299

    def test_drawn_polygons_with_a_reflex_vertex_are_refused(self, rng):
        for _ in range(300):
            vertices = self.drawn_polygon(rng, int(rng.integers(5, 8)), reflex=True)
            with pytest.raises(ValueError):
                polygon_region(vertices)
