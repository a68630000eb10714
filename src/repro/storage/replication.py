"""Replication of high-traffic containers.

*"Some of the high-traffic data will be replicated among servers.  It is
up to the database software to manage this partitioning and replication."*

The :class:`ReplicationManager` tracks per-container access counts,
promotes the hottest containers to extra replicas, and routes reads to the
least-loaded replica — a deliberately simple policy (count-based, not
time-decayed) matching the paper's design sketch.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

__all__ = ["ReplicationManager", "replicate_archive"]


def replicate_archive(archive, replication_factor=2):
    """Physically copy every container onto extra servers.

    Gives a :class:`~repro.storage.cluster.DistributedArchive` full
    ``replication_factor``-way redundancy — each container of every
    hosted source also lives on the ``replication_factor - 1`` servers
    following its owner (wrap-around), so any single server can die and
    every container still has a live copy.  Placement is deterministic
    (owner + k modulo server count), all sources of a sky area travel
    together, and every placement is registered with the archive's
    :class:`ReplicationManager` (attached on demand).

    This is the eager counterpart to :meth:`ReplicationManager.rebalance`
    (which replicates only *hot* containers): chaos tests and failover
    demos need blanket redundancy up front, before any traffic exists to
    measure heat from.

    Returns the number of (container, server) placements made.
    """
    replication_factor = int(replication_factor)
    n_servers = len(archive.servers)
    if replication_factor < 1:
        raise ValueError("replication_factor must be >= 1")
    if replication_factor > n_servers:
        raise ValueError(
            f"replication_factor {replication_factor} exceeds "
            f"{n_servers} server(s)"
        )
    if archive.replication is None:
        archive.enable_replication(replication_factor=replication_factor)
    manager = archive.replication
    placements = 0
    for server in archive.servers:
        for source_name, store in server.stores().items():
            ids = store.snapshot.ids
            # Skip the replicas an earlier server of this pass placed here.
            owned = ids[archive.partition_map.server_for_array(ids) == server.server_id]
            for k in range(1, replication_factor):
                target = archive.servers[(server.server_id + k) % n_servers]
                target_store = target.stores()[source_name]
                missing = np.setdiff1d(owned, target_store.snapshot.ids)
                if not len(missing):
                    continue
                target_store.append(*store.rows(missing))
                for htm_id in missing.tolist():
                    manager.replicas[htm_id].add(target.server_id)
                placements += len(missing)
    return placements


class ReplicationManager:
    """Tracks access heat and places replicas."""

    def __init__(self, partition_map, replication_factor=2, hot_fraction=0.05):
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        self.partition_map = partition_map
        self.replication_factor = int(replication_factor)
        self.hot_fraction = float(hot_fraction)
        self.access_counts = Counter()
        #: container id -> set of server ids holding a replica (primary included)
        self.replicas = defaultdict(set)
        self.server_load = Counter()

    def record_access(self, container_id):
        """Count one access to a container."""
        self.access_counts[int(container_id)] += 1

    def primary_for(self, container_id):
        """The partition-map owner of a container."""
        return self.partition_map.server_for(container_id)

    def replica_servers(self, container_id):
        """All servers currently holding the container."""
        container_id = int(container_id)
        servers = {self.primary_for(container_id)}
        servers.update(self.replicas.get(container_id, ()))
        return servers

    def rebalance(self):
        """Promote the hottest ``hot_fraction`` of accessed containers.

        Each hot container gets up to ``replication_factor`` replicas,
        placed on the least-loaded servers that do not already hold it.
        Returns the list of (container_id, server_id) placements made.
        """
        if not self.access_counts:
            return []
        n_hot = max(1, int(len(self.access_counts) * self.hot_fraction))
        hottest = [cid for cid, _ in self.access_counts.most_common(n_hot)]
        placements = []
        for container_id in hottest:
            current = self.replica_servers(container_id)
            while len(current) < self.replication_factor:
                candidates = [
                    s for s in range(self.partition_map.n_servers) if s not in current
                ]
                if not candidates:
                    break
                target = min(candidates, key=lambda s: self.server_load[s])
                self.replicas[container_id].add(target)
                self.server_load[target] += self.access_counts[container_id]
                placements.append((container_id, target))
                current.add(target)
        return placements

    def route_read(self, container_id):
        """Pick the least-loaded replica for a read and account the load."""
        servers = sorted(self.replica_servers(container_id))
        target = min(servers, key=lambda s: self.server_load[s])
        self.server_load[target] += 1
        self.record_access(container_id)
        return target

    def replicated_container_count(self):
        """How many containers have more than one copy."""
        return sum(1 for cid in self.replicas if len(self.replica_servers(cid)) > 1)
