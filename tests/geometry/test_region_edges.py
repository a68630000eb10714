"""Region membership at the sphere's edges, held to the benchmark's oracle.

``circle_region``, ``rect_region`` (RA spans up to 180 degrees) and
``latitude_band`` must give the verdict ``bench.oracle.region_mask``
gives — a numpy implementation that shares no code with
``repro.geometry`` — on the points where spherical code goes wrong: both
poles, either side of RA 0/360, and the edges and corners of the
depth-6 HTM mesh.  The regions are drawn to sit on the same edges:
centred on a pole or on RA 0, bands that end at a pole, rectangles that
wrap through RA 0.

Tolerance: a point within ``BOUNDARY_TOL`` (1e-9) of the region's
boundary — that close to the plane of one of the region's halfspaces
while inside the others to the same tolerance — is left out.  The two
implementations compute the same planes with different rounding, so a
verdict that close to a plane is rounding, not a disagreement.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bench.oracle import region_mask
from repro.geometry.shapes import circle_region, latitude_band, rect_region
from repro.geometry.vector import normalize, radec_to_vector
from repro.htm.mesh import depth_id_bounds, trixel_corners

MESH_DEPTH = 6
BOUNDARY_TOL = 1e-9
_MESH_IDS = depth_id_bounds(MESH_DEPTH)

# ----------------------------------------------------------------------
# points
# ----------------------------------------------------------------------

_poles = st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]).map(np.array)
#: a small angle in degrees: a hair, or up to two degrees
_small = st.one_of(st.floats(0.0, 1e-6), st.floats(0.0, 2.0))
_near_poles = st.builds(
    lambda ra, sign, gap: radec_to_vector(ra, sign * (90.0 - gap)),
    st.floats(0.0, 360.0),
    st.sampled_from([1.0, -1.0]),
    _small,
)
_seam = st.builds(
    lambda ra, sign, dec: radec_to_vector((sign * ra) % 360.0, dec),
    _small,
    st.sampled_from([1.0, -1.0]),
    st.floats(-90.0, 90.0),
)


@st.composite
def _mesh_edges(draw):
    """A corner of a depth-6 trixel, or a point on one of its edges."""
    corners = trixel_corners(draw(st.integers(_MESH_IDS[0], _MESH_IDS[1] - 1)))
    edge = draw(st.integers(0, 2))
    t = draw(st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 1.0)))
    return normalize((1.0 - t) * corners[edge] + t * corners[(edge + 1) % 3])


_points = st.lists(
    st.one_of(_poles, _near_poles, _seam, _mesh_edges()), min_size=1, max_size=40
).map(np.array)

# ----------------------------------------------------------------------
# regions, each with the oracle's description of it
# ----------------------------------------------------------------------

_ra = st.one_of(
    st.sampled_from([0.0, 90.0, 180.0, 270.0]),
    st.floats(-2.0, 2.0).map(lambda ra: ra % 360.0),
    st.floats(0.0, 360.0, exclude_max=True),
)
_dec = st.one_of(
    st.sampled_from([-90.0, 0.0, 90.0]),
    st.floats(-90.0, -88.0),
    st.floats(88.0, 90.0),
    st.floats(-90.0, 90.0),
)


@st.composite
def _circles(draw):
    ra, dec = draw(_ra), draw(_dec)
    radius = draw(st.one_of(st.sampled_from([90.0, 180.0]), st.floats(1e-3, 180.0)))
    return circle_region(ra, dec, radius), ("circle", ra, dec, radius)


@st.composite
def _bands(draw):
    low, high = sorted((draw(_dec), draw(_dec)))
    return latitude_band(low, high), ("latband", low, high)


@st.composite
def _rects(draw):
    ra_min = draw(_ra)
    span = draw(st.one_of(st.sampled_from([90.0, 180.0]), st.floats(1e-3, 180.0)))
    ra_max = (ra_min + span) % 360.0
    # the oracle handles spans up to 180 degrees, after its own rounding
    assume((ra_max - ra_min) % 360.0 <= 180.0)
    low, high = sorted((draw(_dec), draw(_dec)))
    return (
        rect_region(ra_min, ra_max, low, high),
        ("rect", ra_min, ra_max, low, high),
    )


def _near_boundary(region, xyz):
    """Points within ``BOUNDARY_TOL`` of the region's boundary."""
    near = np.zeros(len(xyz), dtype=bool)
    for convex in region.convexes:
        slack = [xyz @ h.normal - h.offset for h in convex.halfspaces]
        for index, on_plane in enumerate(slack):
            edge = np.abs(on_plane) <= BOUNDARY_TOL
            for other, value in enumerate(slack):
                if other != index:
                    edge &= value >= -BOUNDARY_TOL
            near |= edge
    return near


def _assert_agrees(shape, xyz):
    region, described = shape
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    keep = ~_near_boundary(region, xyz)
    got = region.contains(xyz)[keep]
    expected = region_mask(described, xyz)[keep]
    disagree = xyz[keep][got != expected]
    assert len(disagree) == 0, (described, disagree[:5])


@given(_circles(), _points)
@settings(max_examples=200, deadline=None)
def test_circle_contains_matches_the_oracle(shape, xyz):
    _assert_agrees(shape, xyz)


@given(_bands(), _points)
@settings(max_examples=200, deadline=None)
def test_latitude_band_contains_matches_the_oracle(shape, xyz):
    _assert_agrees(shape, xyz)


@given(_rects(), _points)
@settings(max_examples=200, deadline=None)
def test_rect_contains_matches_the_oracle(shape, xyz):
    _assert_agrees(shape, xyz)
