"""Tests for repro.htm.depthmap."""

import numpy as np
import pytest

from repro.geometry.shapes import circle_region
from repro.htm.depthmap import DensityMap
from repro.htm.mesh import lookup_ids
from repro.htm.ranges import RangeSet


@pytest.fixture(scope="module")
def sky_positions():
    rng = np.random.default_rng(99)
    n = 6000
    # Half clustered in a small patch, half uniform: strong contrast.
    patch_ra = rng.uniform(40, 44, n // 2)
    patch_dec = rng.uniform(10, 14, n // 2)
    z = rng.uniform(-1, 1, n // 2)
    phi = rng.uniform(0, 2 * np.pi, n // 2)
    uniform_ra = np.degrees(phi)
    uniform_dec = np.degrees(np.arcsin(z))
    ra = np.concatenate([patch_ra, uniform_ra])
    dec = np.concatenate([patch_dec, uniform_dec])
    return ra, dec


class TestCounting:
    def test_total(self, sky_positions):
        ra, dec = sky_positions
        density = DensityMap.from_positions(ra, dec, 5)
        assert density.total() == len(ra)

    def test_count_for_id_matches_lookup(self, sky_positions):
        ra, dec = sky_positions
        density = DensityMap.from_positions(ra, dec, 5)
        ids = lookup_ids(ra, dec, 5)
        unique, counts = np.unique(ids, return_counts=True)
        for htm_id, count in zip(unique[:20], counts[:20]):
            assert density.count_for_id(int(htm_id)) == int(count)

    def test_count_in_rangeset(self, sky_positions):
        ra, dec = sky_positions
        density = DensityMap.from_positions(ra, dec, 4)
        lo, hi = 8 * 4**4, 16 * 4**4
        assert density.count_in_rangeset(RangeSet([(lo, hi - 1)])) == density.total()

    def test_add_ids_validates_depth(self):
        density = DensityMap(4)
        with pytest.raises(ValueError):
            density.add_ids(np.array([8]))  # depth-0 id

    def test_counts_reject_ids_at_another_depth(self, sky_positions):
        ra, dec = sky_positions
        density = DensityMap.from_positions(ra, dec, 4)
        lo3 = 8 * 4**3  # first depth-3 id: below every depth-4 id
        hi5 = 16 * 4**5 - 1  # last depth-5 id: above every depth-4 id
        for htm_id in (lo3, lo3 + 100, hi5):
            with pytest.raises(ValueError):
                density.count_for_id(htm_id)
        for lo, hi in ((lo3, lo3 + 10), (8 * 4**4, hi5)):
            with pytest.raises(ValueError):
                density.count_in_rangeset(RangeSet([(lo, hi)]))

    def test_bad_counts_shape(self):
        with pytest.raises(ValueError):
            DensityMap(3, counts=np.zeros(7))

    def test_occupancy_and_contrast(self, sky_positions):
        ra, dec = sky_positions
        density = DensityMap.from_positions(ra, dec, 6)
        assert 0.0 < density.occupancy() < 1.0
        # The clustered patch forces a strong density contrast.
        assert density.density_contrast() > 5.0


class TestEstimation:
    def test_estimate_bounds_truth(self, sky_positions):
        # "A prediction of the output data volume ... can be computed from
        # the intersection volume": the prediction must bracket reality
        # between the accepted floor and the scanned ceiling, and land
        # near the true count.
        ra, dec = sky_positions
        density = DensityMap.from_positions(ra, dec, 6)
        region = circle_region(42.0, 12.0, 1.5)
        estimate = density.estimate(region)

        from repro.geometry.vector import radec_to_vector

        truth = int(region.contains(radec_to_vector(ra, dec)).sum())
        assert estimate.objects_in_accepted <= truth <= estimate.objects_scanned
        assert estimate.predicted_result_count == pytest.approx(truth, rel=0.5)

    def test_estimate_with_fixed_fraction(self, sky_positions):
        ra, dec = sky_positions
        density = DensityMap.from_positions(ra, dec, 5)
        region = circle_region(42.0, 12.0, 1.0)
        estimate = density.estimate(region, intersection_fraction=1.0)
        assert estimate.predicted_result_count == estimate.objects_scanned

    def test_empty_region_estimate(self, sky_positions):
        ra, dec = sky_positions
        density = DensityMap.from_positions(ra, dec, 5)
        region = circle_region(42.0, 12.0, 0.001)
        estimate = density.estimate(region)
        assert estimate.objects_scanned <= density.total()

    def test_container_counts_reported(self, sky_positions):
        ra, dec = sky_positions
        density = DensityMap.from_positions(ra, dec, 5)
        region = circle_region(42.0, 12.0, 3.0)
        estimate = density.estimate(region)
        assert estimate.containers_accepted > 0
        assert estimate.containers_bisected > 0
