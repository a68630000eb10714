"""Cartesian unit-vector representation of sky positions.

The paper ("Indexing the Sky"): *"We store the angular coordinates in a
Cartesian form, i.e. as a triplet of x, y, z values per object. ... it
makes querying the database for objects within certain areas of the
celestial sphere, or involving different coordinate systems considerably
more efficient."*

Conventions
-----------
* Right ascension ``ra`` and declination ``dec`` are in **degrees**,
  ``ra`` in ``[0, 360)``, ``dec`` in ``[-90, 90]``.
* Unit vectors follow the usual astronomical convention::

      x = cos(dec) * cos(ra)
      y = cos(dec) * sin(ra)
      z = sin(dec)

All functions accept scalars or numpy arrays and are fully vectorized.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "radec_to_vector",
    "vector_to_radec",
    "normalize",
    "is_unit",
    "UnitVector",
    "cross",
    "dot",
    "triple_product",
    "tangent_basis",
    "rotate_about_axis",
    "random_unit_vectors",
]

#: Tolerance used when checking that a vector has unit norm.
UNIT_NORM_TOLERANCE = 1e-9


def radec_to_vector(ra, dec):
    """Convert (ra, dec) in degrees to Cartesian unit vector(s).

    Scalars produce a shape-``(3,)`` array; array inputs of shape ``(n,)``
    produce a ``(n, 3)`` array.

    >>> radec_to_vector(0.0, 0.0)
    array([1., 0., 0.])
    """
    ra_rad = np.deg2rad(np.asarray(ra, dtype=np.float64))
    dec_rad = np.deg2rad(np.asarray(dec, dtype=np.float64))
    cos_dec = np.cos(dec_rad)
    xyz = np.stack(
        [cos_dec * np.cos(ra_rad), cos_dec * np.sin(ra_rad), np.sin(dec_rad)],
        axis=-1,
    )
    return xyz


def vector_to_radec(xyz):
    """Convert Cartesian vector(s) to (ra, dec) in degrees.

    The input does not need to be normalized; only its direction is used.
    Returns a tuple ``(ra, dec)`` of scalars or arrays matching the input
    shape.  At the poles (``x == y == 0``) the right ascension is 0.
    """
    xyz = np.asarray(xyz, dtype=np.float64)
    x, y, z = xyz[..., 0], xyz[..., 1], xyz[..., 2]
    norm = np.sqrt(x * x + y * y + z * z)
    if np.any(norm == 0.0):
        raise ValueError("cannot convert the zero vector to (ra, dec)")
    ra = np.rad2deg(np.arctan2(y, x)) % 360.0
    dec = np.rad2deg(np.arcsin(np.clip(z / norm, -1.0, 1.0)))
    if xyz.ndim == 1:
        return float(ra), float(dec)
    return ra, dec


def normalize(xyz):
    """Return vector(s) scaled to unit length.

    Raises :class:`ValueError` if any input vector is zero.
    """
    xyz = np.asarray(xyz, dtype=np.float64)
    norm = np.linalg.norm(xyz, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise ValueError("cannot normalize the zero vector")
    return xyz / norm


def is_unit(xyz, tolerance=UNIT_NORM_TOLERANCE):
    """True where vector(s) have unit norm within ``tolerance``."""
    xyz = np.asarray(xyz, dtype=np.float64)
    norm = np.linalg.norm(xyz, axis=-1)
    return np.abs(norm - 1.0) <= tolerance


def cross(a, b):
    """Cross product over the last axis of broadcastable arrays: the
    components :func:`cross3` forms, row-wise (``np.cross``'s arithmetic,
    bit for bit, without its axis handling)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def cross3(a, b):
    """Cross product of two single 3-vectors, avoiding ``np.cross`` overhead.

    ``np.cross`` pays axis-normalization costs that dominate when called
    per-trixel in the HTM hot paths; this explicit form is ~10x faster for
    the scalar case.
    """
    return np.array(
        (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )
    )


def dot(a, b):
    """Dot product over the last axis, broadcasting over leading axes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.sum(a * b, axis=-1)


def triple_product(a, b, c):
    """Scalar triple product ``a . (b x c)``.

    Positive when ``(a, b, c)`` form a right-handed (counter-clockwise
    seen from outside the sphere) triangle — the orientation invariant the
    HTM trixels maintain.
    """
    return dot(a, np.cross(np.asarray(b, dtype=np.float64), np.asarray(c, dtype=np.float64)))


def tangent_basis(center):
    """Return two orthonormal vectors spanning the tangent plane at ``center``.

    Used to build small convex polygons around a point (e.g. finding-chart
    footprints).  ``center`` must be a single nonzero vector.
    """
    center = normalize(np.asarray(center, dtype=np.float64))
    # Pick the coordinate axis least aligned with center to seed the basis.
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(center)))] = 1.0
    east = np.cross(seed, center)
    east /= np.linalg.norm(east)
    north = np.cross(center, east)
    return east, north


def rotate_about_axis(xyz, axis, angle_deg):
    """Rotate vector(s) about ``axis`` by ``angle_deg`` (Rodrigues formula)."""
    xyz = np.asarray(xyz, dtype=np.float64)
    axis = normalize(np.asarray(axis, dtype=np.float64))
    theta = math.radians(angle_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    k_cross_v = np.cross(np.broadcast_to(axis, xyz.shape), xyz)
    k_dot_v = np.sum(xyz * axis, axis=-1, keepdims=True)
    return xyz * cos_t + k_cross_v * sin_t + axis * k_dot_v * (1.0 - cos_t)


def random_unit_vectors(n, rng=None):
    """Draw ``n`` vectors uniformly distributed on the unit sphere."""
    rng = np.random.default_rng(rng)
    z = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


class UnitVector:
    """A single validated point on the unit sphere.

    A light convenience wrapper used in public APIs where a *single*
    position is expected (query centers, chart centers).  Bulk data always
    travels as raw ``(n, 3)`` numpy arrays.
    """

    __slots__ = ("xyz",)

    def __init__(self, xyz):
        xyz = np.asarray(xyz, dtype=np.float64)
        if xyz.shape != (3,):
            raise ValueError(f"UnitVector needs shape (3,), got {xyz.shape}")
        self.xyz = normalize(xyz)

    @classmethod
    def from_radec(cls, ra, dec):
        """Build from right ascension / declination in degrees."""
        return cls(radec_to_vector(float(ra), float(dec)))

    @property
    def ra(self):
        """Right ascension in degrees."""
        return vector_to_radec(self.xyz)[0]

    @property
    def dec(self):
        """Declination in degrees."""
        return vector_to_radec(self.xyz)[1]

    def __iter__(self):
        return iter(self.xyz)

    def __repr__(self):
        ra, dec = vector_to_radec(self.xyz)
        return f"UnitVector(ra={ra:.6f}, dec={dec:.6f})"

    def __eq__(self, other):
        if not isinstance(other, UnitVector):
            return NotImplemented
        return bool(np.allclose(self.xyz, other.xyz, atol=1e-12))

    def __hash__(self):
        return hash(tuple(np.round(self.xyz, 12)))
