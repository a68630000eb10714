"""Tests for repro.archive.skymap."""

import numpy as np
import pytest

from repro.archive.skymap import SkyMap
from repro.htm.mesh import depth_id_bounds, lookup_ids


class TestSkyMapBinning:
    def test_total_objects_conserved(self, photo):
        sky_map = SkyMap.from_table(photo, map_depth=7, tile_depth=3)
        assert sky_map.total_objects() == len(photo)

    def test_counts_match_direct_binning(self, photo):
        sky_map = SkyMap.from_table(photo, map_depth=7, tile_depth=3)
        fine_ids = lookup_ids(photo["ra"], photo["dec"], 7)
        shift = 2 * (7 - 3)
        for tile_id in sky_map.occupied_tiles()[:10]:
            counts = sky_map.counts_for_tile(tile_id)
            in_tile = (fine_ids >> shift) == tile_id
            expected = np.bincount(
                (fine_ids[in_tile] - (tile_id << shift)).astype(np.int64),
                minlength=counts.shape[0],
            )
            np.testing.assert_array_equal(counts, expected)

    def test_flux_positive_where_counted(self, photo):
        sky_map = SkyMap.from_table(photo, map_depth=7, tile_depth=3)
        tile_id = sky_map.occupied_tiles()[0]
        counts = sky_map.counts_for_tile(tile_id)
        flux = sky_map.flux_for_tile(tile_id)
        occupied = counts > 0
        assert bool((flux[occupied].sum(axis=1) > 0).all())
        assert bool((flux[~occupied] == 0).all())

    def test_incremental_add(self, photo):
        half = len(photo) // 2
        sky_map = SkyMap(map_depth=7, tile_depth=3)
        sky_map.add_objects(photo.take(np.arange(half)))
        sky_map.add_objects(photo.take(np.arange(half, len(photo))))
        assert sky_map.total_objects() == len(photo)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            SkyMap(map_depth=4, tile_depth=4)

    def test_tile_id_validation(self, photo):
        sky_map = SkyMap.from_table(photo, map_depth=7, tile_depth=3)
        with pytest.raises(ValueError):
            sky_map.counts_for_tile(8)  # depth-0 id


class TestSkyMapStorage:
    def test_compression_wins(self, photo):
        # Sparse tiles (mostly-empty bins) compress heavily.
        sky_map = SkyMap.from_table(photo, map_depth=8, tile_depth=3)
        assert sky_map.stats.raw_bytes > 3.0 * sky_map.stats.compressed_bytes

    def test_tiles_counted(self, photo):
        sky_map = SkyMap.from_table(photo, map_depth=7, tile_depth=3)
        assert sky_map.stats.compressed_bytes > 0
        assert sky_map.stats.tiles == len(sky_map)

    def test_roundtrip_after_recompression(self, photo):
        # Adding twice decompresses and recompresses; data must survive.
        sky_map = SkyMap(map_depth=7, tile_depth=3)
        subset = photo.take(np.arange(200))
        sky_map.add_objects(subset)
        before = {
            t: sky_map.counts_for_tile(t).copy() for t in sky_map.occupied_tiles()
        }
        sky_map.add_objects(subset)  # same objects again: counts double
        for tile_id, counts in before.items():
            np.testing.assert_array_equal(
                sky_map.counts_for_tile(tile_id), counts * 2
            )
