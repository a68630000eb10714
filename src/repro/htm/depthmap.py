"""Coarse density maps and query-cost prediction.

*"These containers represent a coarse-grained density map of the data.
They define the base of an index tree that tells us whether containers are
fully inside, outside or bisected by our query. ... A prediction of the
output data volume and search time can be computed from the intersection
volume."*

A :class:`DensityMap` counts objects per trixel at a fixed depth.  Given a
coverage it predicts (a) how many objects a query returns and (b) how many
must be scanned — the accepted containers contribute all their objects,
bisected containers contribute an area-weighted fraction estimate.  The
volume prediction figure test reproduces it; query planning does not.
"""

from __future__ import annotations

import numpy as np

from repro.htm.cover import cover_region
from repro.htm.mesh import depth_id_bounds, lookup_ids, trixel_from_id

__all__ = ["DensityMap", "CostEstimate"]


class CostEstimate:
    """Predicted query volume (all object counts, not bytes)."""

    __slots__ = (
        "objects_in_accepted",
        "objects_in_bisected",
        "predicted_result_count",
        "objects_scanned",
        "containers_accepted",
        "containers_bisected",
    )

    def __init__(
        self,
        objects_in_accepted,
        objects_in_bisected,
        predicted_result_count,
        objects_scanned,
        containers_accepted,
        containers_bisected,
    ):
        self.objects_in_accepted = int(objects_in_accepted)
        self.objects_in_bisected = int(objects_in_bisected)
        self.predicted_result_count = float(predicted_result_count)
        self.objects_scanned = int(objects_scanned)
        self.containers_accepted = int(containers_accepted)
        self.containers_bisected = int(containers_bisected)

    def __repr__(self):
        return (
            f"CostEstimate(predicted={self.predicted_result_count:.0f}, "
            f"scanned={self.objects_scanned}, "
            f"accepted={self.containers_accepted}, bisected={self.containers_bisected})"
        )


class DensityMap:
    """Object counts per trixel at a fixed depth."""

    def __init__(self, depth, counts=None):
        self.depth = int(depth)
        lo, hi = depth_id_bounds(self.depth)
        self._lo = lo
        size = hi - lo
        if counts is None:
            counts = np.zeros(size, dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != (size,):
                raise ValueError(
                    f"counts must have shape ({size},) for depth {self.depth}"
                )
        self.counts = counts

    @classmethod
    def from_positions(cls, ra, dec, depth):
        """Count objects per depth-``depth`` trixel from degree arrays."""
        ids = lookup_ids(np.asarray(ra), np.asarray(dec), depth)
        density = cls(depth)
        density.add_ids(ids)
        return density

    def add_ids(self, ids):
        """Accumulate already-computed HTM ids (depth must match)."""
        ids = np.asarray(ids, dtype=np.int64)
        offsets = ids - self._lo
        if np.any(offsets < 0) or np.any(offsets >= self.counts.shape[0]):
            raise ValueError("ids are not at this map's depth")
        np.add.at(self.counts, offsets, 1)

    def total(self):
        """Total number of objects counted."""
        return int(self.counts.sum())

    def count_for_id(self, htm_id):
        """Objects in a single trixel (its id must be at this map's depth)."""
        offset = int(htm_id) - self._lo
        if not 0 <= offset < self.counts.shape[0]:
            raise ValueError(f"id {htm_id} is not at this map's depth")
        return int(self.counts[offset])

    def count_in_rangeset(self, rangeset):
        """Total objects over a :class:`RangeSet` of this depth's ids."""
        total = 0
        for lo, hi in rangeset:
            if lo < self._lo or hi - self._lo >= self.counts.shape[0]:
                raise ValueError(f"ids [{lo}, {hi}] are not at this map's depth")
            total += int(self.counts[lo - self._lo : hi - self._lo + 1].sum())
        return total

    def occupancy(self):
        """Fraction of trixels that contain at least one object."""
        return float(np.count_nonzero(self.counts)) / self.counts.shape[0]

    def density_contrast(self):
        """Max/mean count ratio over occupied trixels.

        Quantifies the paper's "large density contrasts" [Csabai97]
        concern: clustered skies have contrast >> 1.
        """
        occupied = self.counts[self.counts > 0]
        if occupied.size == 0:
            return 0.0
        return float(occupied.max()) / float(occupied.mean())

    def estimate(self, region, intersection_fraction=None):
        """Predict result volume and scan volume for ``region``.

        ``intersection_fraction`` is the assumed fraction of a bisected
        trixel's objects that satisfy the query; by default it is
        estimated per-trixel from the area of the trixel covered by the
        region (sampled on trixel corners + center, cheap and unbiased
        enough for planning).
        """
        coverage = cover_region(region, self.depth)
        objects_in = self.count_in_rangeset(coverage.inside)
        objects_bi = self.count_in_rangeset(coverage.partial)

        if intersection_fraction is None:
            fraction = self._sampled_fraction(region, coverage)
        else:
            fraction = float(intersection_fraction)

        return CostEstimate(
            objects_in_accepted=objects_in,
            objects_in_bisected=objects_bi,
            predicted_result_count=objects_in + fraction * objects_bi,
            objects_scanned=objects_in + objects_bi,
            containers_accepted=coverage.inside.count(),
            containers_bisected=coverage.partial.count(),
        )

    def _sampled_fraction(self, region, coverage, max_trixels=256):
        """Average in-region fraction of sample points over bisected trixels."""
        sampled = 0
        hits = 0
        for htm_id in coverage.partial.iter_ids():
            if sampled >= max_trixels * 4:
                break
            trixel = trixel_from_id(htm_id)
            points = np.vstack([trixel.corners, trixel.center()])
            hits += int(np.count_nonzero(region.contains(points)))
            sampled += points.shape[0]
        if sampled == 0:
            return 0.5
        return hits / sampled

    def __repr__(self):
        return (
            f"DensityMap(depth={self.depth}, total={self.total()}, "
            f"occupancy={self.occupancy():.3f})"
        )
