"""The compressed Sky Map product.

Table 1 lists a "Compressed Sky Map" of 5x10^5 items and 1.0 TB — a
binned representation of the imaging survey for browsing and quick-look
photometry.  We build it as per-trixel aggregates at a fixed HTM depth:
object counts and summed flux per band, stored zlib-compressed per
coarse tile (the "items" of Table 1), decompressed on demand.

This gives the archive a real second imaging-derived product exercising
the same container/trixel machinery as the catalog, with its stored and
raw byte counts (:class:`SkyMapStats`) to set beside Table 1's entry.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.catalog.schema import BANDS
from repro.htm.mesh import depth_id_bounds, lookup_ids_from_vectors

__all__ = ["SkyMap", "SkyMapStats"]


@dataclass
class SkyMapStats:
    """Storage accounting of a sky map."""

    tiles: int = 0
    occupied_bins: int = 0
    raw_bytes: int = 0
    compressed_bytes: int = 0


class SkyMap:
    """Per-trixel count and flux map at ``map_depth``, tiled at ``tile_depth``.

    ``tile_depth < map_depth``: each coarse tile stores the compressed
    block of its ``4**(map_depth - tile_depth)`` fine bins.
    """

    def __init__(self, map_depth=8, tile_depth=4):
        if tile_depth >= map_depth:
            raise ValueError("tile_depth must be shallower than map_depth")
        self.map_depth = int(map_depth)
        self.tile_depth = int(tile_depth)
        self._bins_per_tile = 4 ** (self.map_depth - self.tile_depth)
        self._tiles = {}
        self.stats = SkyMapStats()

    @classmethod
    def from_table(cls, photo_table, map_depth=8, tile_depth=4):
        """Bin a photometric catalog into a sky map."""
        sky_map = cls(map_depth, tile_depth)
        sky_map.add_objects(photo_table)
        return sky_map

    def add_objects(self, photo_table):
        """Accumulate objects (decompresses, adds, recompresses tiles)."""
        xyz = photo_table.positions_xyz()
        fine_ids = lookup_ids_from_vectors(xyz, self.map_depth)
        shift = 2 * (self.map_depth - self.tile_depth)
        tile_ids = fine_ids >> shift
        fluxes = {
            band: np.power(
                10.0,
                (22.5 - np.asarray(photo_table[f"mag_{band}"], dtype=np.float64))
                / 2.5,
            )
            for band in BANDS
        }
        for tile_id in np.unique(tile_ids):
            mask = tile_ids == tile_id
            block = self._load_tile(int(tile_id))
            offsets = (fine_ids[mask] - (int(tile_id) << shift)).astype(np.int64)
            np.add.at(block["count"], offsets, 1)
            for band_index, band in enumerate(BANDS):
                np.add.at(block["flux"][:, band_index], offsets, fluxes[band][mask])
            self._store_tile(int(tile_id), block)

    def _empty_block(self):
        return {
            "count": np.zeros(self._bins_per_tile, dtype=np.int32),
            "flux": np.zeros((self._bins_per_tile, len(BANDS)), dtype=np.float32),
        }

    def _load_tile(self, tile_id):
        if tile_id not in self._tiles:
            return self._empty_block()
        payload = self._tiles[tile_id]
        raw = zlib.decompress(payload)
        count_bytes = self._bins_per_tile * 4
        count = np.frombuffer(raw[:count_bytes], dtype=np.int32).copy()
        flux = np.frombuffer(raw[count_bytes:], dtype=np.float32).copy()
        return {
            "count": count,
            "flux": flux.reshape(self._bins_per_tile, len(BANDS)),
        }

    def _store_tile(self, tile_id, block):
        raw = block["count"].tobytes() + block["flux"].astype(np.float32).tobytes()
        payload = zlib.compress(raw, 6)
        if tile_id in self._tiles:
            self.stats.compressed_bytes -= len(self._tiles[tile_id])
            self.stats.raw_bytes -= (
                self._bins_per_tile * 4 + self._bins_per_tile * len(BANDS) * 4
            )
            self.stats.tiles -= 1
        self._tiles[tile_id] = payload
        self.stats.tiles += 1
        self.stats.raw_bytes += len(raw)
        self.stats.compressed_bytes += len(payload)
        self.stats.occupied_bins = None  # recomputed lazily

    def counts_for_tile(self, tile_id):
        """Decompressed per-bin counts of one coarse tile."""
        lo, hi = depth_id_bounds(self.tile_depth)
        if not lo <= int(tile_id) < hi:
            raise ValueError(f"tile id {tile_id} is not at depth {self.tile_depth}")
        return self._load_tile(int(tile_id))["count"]

    def flux_for_tile(self, tile_id):
        """Decompressed per-bin, per-band flux sums of one coarse tile."""
        lo, hi = depth_id_bounds(self.tile_depth)
        if not lo <= int(tile_id) < hi:
            raise ValueError(f"tile id {tile_id} is not at depth {self.tile_depth}")
        return self._load_tile(int(tile_id))["flux"]

    def total_objects(self):
        """Sum of all bin counts (equals objects binned)."""
        return int(
            sum(self._load_tile(t)["count"].sum() for t in self._tiles)
        )

    def occupied_tiles(self):
        """Ids of coarse tiles holding at least one object."""
        return sorted(self._tiles)

    def __len__(self):
        return len(self._tiles)
