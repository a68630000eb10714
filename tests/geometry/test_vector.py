"""Tests for repro.geometry.vector."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.vector import (
    UnitVector,
    cross3,
    dot,
    is_unit,
    normalize,
    radec_to_vector,
    random_unit_vectors,
    rotate_about_axis,
    tangent_basis,
    triple_product,
    vector_to_radec,
)

ras = st.floats(min_value=0.0, max_value=359.999999)
decs = st.floats(min_value=-89.999, max_value=89.999)


class TestRadecConversion:
    def test_cardinal_directions(self):
        np.testing.assert_allclose(radec_to_vector(0.0, 0.0), [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(radec_to_vector(90.0, 0.0), [0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(radec_to_vector(0.0, 90.0), [0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(radec_to_vector(0.0, -90.0), [0, 0, -1], atol=1e-15)

    def test_vectorized_shape(self):
        xyz = radec_to_vector(np.zeros(7), np.zeros(7))
        assert xyz.shape == (7, 3)

    def test_scalar_shape(self):
        assert radec_to_vector(10.0, 20.0).shape == (3,)

    @given(ras, decs)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, ra, dec):
        out_ra, out_dec = vector_to_radec(radec_to_vector(ra, dec))
        assert math.isclose(out_dec, dec, abs_tol=1e-9)
        # RA wraps and degenerates at the poles.
        delta = abs(out_ra - ra) % 360.0
        assert min(delta, 360.0 - delta) < 1e-7 / max(math.cos(math.radians(dec)), 1e-12)

    @given(ras, decs)
    @settings(max_examples=100, deadline=None)
    def test_result_is_unit(self, ra, dec):
        assert bool(is_unit(radec_to_vector(ra, dec)))

    def test_pole_ra_is_zero(self):
        ra, dec = vector_to_radec(np.array([0.0, 0.0, 1.0]))
        assert ra == 0.0
        assert dec == pytest.approx(90.0)

    def test_array_roundtrip(self):
        ra = np.array([0.0, 123.4, 359.0])
        dec = np.array([-45.0, 0.0, 45.0])
        out_ra, out_dec = vector_to_radec(radec_to_vector(ra, dec))
        np.testing.assert_allclose(out_ra, ra, atol=1e-9)
        np.testing.assert_allclose(out_dec, dec, atol=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            vector_to_radec(np.zeros(3))

    def test_unnormalized_input_ok(self):
        ra, dec = vector_to_radec(np.array([2.0, 0.0, 0.0]))
        assert (ra, dec) == (0.0, pytest.approx(0.0))


class TestNormalize:
    def test_normalizes(self):
        out = normalize(np.array([3.0, 4.0, 0.0]))
        np.testing.assert_allclose(out, [0.6, 0.8, 0.0])

    def test_batch(self):
        out = normalize(np.array([[2.0, 0, 0], [0, 0, 5.0]]))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_zero_raises(self):
        with pytest.raises(ValueError):
            normalize(np.zeros(3))


class TestCrossAndTriple:
    def test_cross3_matches_numpy(self, rng):
        a, b = rng.normal(size=3), rng.normal(size=3)
        np.testing.assert_allclose(cross3(a, b), np.cross(a, b))

    def test_triple_product_orientation(self):
        # Right-handed basis is positive.
        assert triple_product([1, 0, 0], [0, 1, 0], [0, 0, 1]) > 0
        assert triple_product([0, 1, 0], [1, 0, 0], [0, 0, 1]) < 0

    def test_dot_batch(self):
        a = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        np.testing.assert_allclose(dot(a, a), [1.0, 1.0])


class TestTangentBasis:
    @given(ras, decs)
    @settings(max_examples=50, deadline=None)
    def test_orthonormal(self, ra, dec):
        center = radec_to_vector(ra, dec)
        east, north = tangent_basis(center)
        assert math.isclose(np.dot(east, east), 1.0, abs_tol=1e-12)
        assert math.isclose(np.dot(north, north), 1.0, abs_tol=1e-12)
        assert math.isclose(np.dot(east, north), 0.0, abs_tol=1e-12)
        assert math.isclose(np.dot(east, center), 0.0, abs_tol=1e-12)
        assert math.isclose(np.dot(north, center), 0.0, abs_tol=1e-12)

    def test_north_points_north(self):
        center = radec_to_vector(30.0, 10.0)
        _east, north = tangent_basis(center)
        displaced = normalize(center + 0.01 * north)
        _ra, dec = vector_to_radec(displaced)
        assert dec > 10.0


class TestRotate:
    def test_quarter_turn_about_z(self):
        out = rotate_about_axis(np.array([1.0, 0.0, 0.0]), [0, 0, 1], 90.0)
        np.testing.assert_allclose(out, [0, 1, 0], atol=1e-12)

    def test_preserves_norm(self, rng):
        v = rng.normal(size=(5, 3))
        out = rotate_about_axis(v, [0, 1, 0], 37.0)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=1), np.linalg.norm(v, axis=1)
        )

    def test_identity_rotation(self, rng):
        v = rng.normal(size=3)
        np.testing.assert_allclose(rotate_about_axis(v, [1, 0, 0], 0.0), v, atol=1e-15)


class TestRandomUnitVectors:
    def test_all_unit(self):
        out = random_unit_vectors(500, rng=1)
        assert bool(np.all(is_unit(out)))

    def test_mean_near_zero(self):
        out = random_unit_vectors(20000, rng=2)
        assert np.linalg.norm(out.mean(axis=0)) < 0.02

    def test_reproducible(self):
        np.testing.assert_array_equal(
            random_unit_vectors(10, rng=3), random_unit_vectors(10, rng=3)
        )


class TestUnitVector:
    def test_from_radec(self):
        u = UnitVector.from_radec(45.0, -30.0)
        assert u.ra == pytest.approx(45.0)
        assert u.dec == pytest.approx(-30.0)

    def test_normalizes_input(self):
        u = UnitVector([0.0, 0.0, 2.0])
        assert u.dec == pytest.approx(90.0)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            UnitVector([1.0, 0.0])

    def test_equality_and_hash(self):
        a = UnitVector.from_radec(10.0, 20.0)
        b = UnitVector.from_radec(10.0, 20.0)
        assert a == b
        assert hash(a) == hash(b)
