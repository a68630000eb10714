"""Spatial partitioning of containers across servers.

*"The SDSS data is too large to fit on one disk or even one server.  The
base-data objects will be spatially partitioned among the servers.  As new
servers are added, the data will repartition."*

Because HTM ids linearize the sky with good locality (a subtree is an id
interval), partitioning by *contiguous id ranges balanced by object count*
keeps each server responsible for a compact sky area — queries touching a
small region hit few servers, while all-sky scans parallelize across all
of them.

The same contiguous ranges drive *shard pruning* in the distributed
query executor: a plan's HTM cover (a :class:`~repro.htm.ranges.RangeSet`
of candidate container ids) is intersected with ``ranges_for`` each
server, and servers with an empty intersection are skipped entirely —
see :mod:`repro.distributed.routing`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.htm.ranges import RangeSet

__all__ = ["PartitionMap", "Partitioner", "RepartitionReport"]


@dataclass
class RepartitionReport:
    """What a repartitioning moved."""

    objects_total: int
    objects_moved: int
    containers_moved: int

    def moved_fraction(self):
        """Fraction of objects that changed servers."""
        if self.objects_total == 0:
            return 0.0
        return self.objects_moved / self.objects_total


class PartitionMap:
    """Assignment of container-id ranges to servers.

    ``boundaries`` is a sorted list of ids; server ``k`` owns ids in
    ``[boundaries[k], boundaries[k+1])``.
    """

    def __init__(self, boundaries, n_servers):
        if len(boundaries) != n_servers + 1:
            raise ValueError("need n_servers + 1 boundaries")
        if list(boundaries) != sorted(boundaries):
            raise ValueError("boundaries must be sorted")
        self.boundaries = [int(b) for b in boundaries]
        self.n_servers = int(n_servers)

    def server_for(self, container_id):
        """Which server owns a container id."""
        container_id = int(container_id)
        if not self.boundaries[0] <= container_id < self.boundaries[-1]:
            raise ValueError(f"container id {container_id} outside partitioned space")
        idx = int(np.searchsorted(self.boundaries, container_id, side="right")) - 1
        return min(idx, self.n_servers - 1)

    def server_for_array(self, container_ids):
        """Vectorized owner lookup."""
        ids = np.asarray(container_ids, dtype=np.int64)
        idx = np.searchsorted(self.boundaries, ids, side="right") - 1
        return np.clip(idx, 0, self.n_servers - 1)

    def ranges_for(self, server_id):
        """RangeSet of ids owned by a server."""
        lo = self.boundaries[server_id]
        hi = self.boundaries[server_id + 1] - 1
        if hi < lo:
            return RangeSet()
        return RangeSet(((lo, hi),))

    def __repr__(self):
        return f"PartitionMap(servers={self.n_servers})"


class Partitioner:
    """Builds and rebalances :class:`PartitionMap` from container weights."""

    def __init__(self, depth):
        from repro.htm.mesh import depth_id_bounds

        self.depth = int(depth)
        self._lo, self._hi = depth_id_bounds(self.depth)

    def build(self, container_weights, n_servers):
        """Balanced contiguous partitioning by cumulative weight.

        ``container_weights`` maps container id -> object count (or
        bytes).  Boundaries are chosen so each server holds approximately
        ``total / n_servers`` weight, preserving id order (sky locality).
        """
        if n_servers < 1:
            raise ValueError("need at least one server")
        ids = np.array(sorted(container_weights), dtype=np.int64)
        if ids.size == 0:
            step = (self._hi - self._lo) // n_servers
            boundaries = [self._lo + k * step for k in range(n_servers)] + [self._hi]
            return PartitionMap(boundaries, n_servers)
        weights = np.array([container_weights[int(i)] for i in ids], dtype=np.float64)
        cumulative = np.cumsum(weights)
        total = cumulative[-1]
        boundaries = [self._lo]
        for k in range(1, n_servers):
            target = total * k / n_servers
            idx = int(np.searchsorted(cumulative, target))
            idx = min(idx, ids.size - 1)
            boundary = int(ids[idx]) + 1
            boundary = max(boundary, boundaries[-1] + 1)
            boundaries.append(min(boundary, self._hi - (n_servers - k)))
        boundaries.append(self._hi)
        return PartitionMap(boundaries, n_servers)

    def repartition(self, old_map, container_weights, n_servers):
        """New map for a changed server count, plus a movement report."""
        new_map = self.build(container_weights, n_servers)
        objects_total = int(sum(container_weights.values()))
        objects_moved = 0
        containers_moved = 0
        for container_id, weight in container_weights.items():
            old_server = old_map.server_for(container_id)
            new_server = new_map.server_for(container_id)
            if old_server != new_server:
                objects_moved += int(weight)
                containers_moved += 1
        report = RepartitionReport(
            objects_total=objects_total,
            objects_moved=objects_moved,
            containers_moved=containers_moved,
        )
        return new_map, report
