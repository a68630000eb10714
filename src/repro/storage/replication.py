"""Replication: extra copies of containers on neighbouring servers.

*"Some of the high-traffic data will be replicated among servers.  It is
up to the database software to manage this partitioning and replication."*

:func:`replicate_archive` copies rows; it records only that copies exist
(``archive.replicated``; a repartition drops them).  Each server's
stores are the one record of what it holds: a cluster session reads
them when it assigns containers to endpoints and when it fails a dead
server's ranges over to a live copy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["replicate_archive"]


def replicate_archive(archive, replication_factor=2):
    """Physically copy every container onto extra servers.

    Gives a :class:`~repro.storage.cluster.DistributedArchive` full
    ``replication_factor``-way redundancy — each container of every
    hosted source also lives on the ``replication_factor - 1`` servers
    following its owner (wrap-around), so any single server can die and
    every container still has a live copy.  Placement is deterministic
    (owner + k modulo server count) and all sources of a sky area travel
    together.  A second call finds every copy in place and places none.
    A repartition (``add_servers``, ``load``) drops the copies again.

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
                if len(missing):
                    target_store.append(*store.rows(missing))
                    placements += len(missing)
    if placements:
        archive.replicated = True
    return placements
