"""Shard routing: which servers a query plan must touch, and at what cost.

*"Splitting the data among multiple servers enables parallel, scalable
I/O."*  A query's HTM cover is intersected with each server's contiguous
id range (:class:`~repro.storage.partition.PartitionMap`); the
intersection is the server's *assignment*, the containers its shard scan
reads — disjoint across servers, so a replicated archive returns every
row once.  Servers whose range misses the cover are *pruned* — their
container stores are never read.  Pruning is conservative by the
cover's contract (ambiguous geometry degrades to PARTIAL, never
OUTSIDE), so a pruned server cannot hold a matching object.

The same routing pass prices the fan-out: per-server bytes under the
assignment feed the :class:`~repro.storage.diskmodel.NodeModel` for
simulated scan seconds ("a prediction of the output data volume and
search time can be computed from the intersection volume").  Each
touched shard's scan rides that server's one shared sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ShardFanoutReport", "route_plan"]


@dataclass
class ShardFanoutReport:
    """Fan-out accounting for one SELECT of a distributed query."""

    source: str
    servers_total: int = 0
    touched_server_ids: list = field(default_factory=list)
    pruned_server_ids: list = field(default_factory=list)
    #: bytes resident under the query's cover, per touched server
    estimated_bytes_per_server: dict = field(default_factory=dict)
    #: simulated scan seconds, per touched server
    simulated_seconds_per_server: dict = field(default_factory=dict)
    #: simulated seconds: slowest touched server (shared-nothing parallelism)
    simulated_seconds: float = 0.0
    #: simulated seconds a single server holding everything would need
    simulated_seconds_single_server: float = 0.0

    @property
    def servers_touched(self):
        return len(self.touched_server_ids)

    def parallel_speedup(self):
        """Single-server scan time over the parallel fan-out time."""
        if self.simulated_seconds == 0:
            return 1.0
        return self.simulated_seconds_single_server / self.simulated_seconds


def _store_bytes_under(store, candidates):
    """Bytes of a store's containers whose ids fall in ``candidates``."""
    snapshot = store.snapshot
    rows = snapshot.sizes[candidates.contains_array(snapshot.ids)].sum()
    return int(rows) * snapshot.dtype.itemsize


def route_plan(archive, routed_source, candidates):
    """Assign the archive's servers their share of one plan.

    ``candidates`` is the cover's candidate :class:`RangeSet` at
    container depth, or ``None`` for a full scan.  Each server is
    assigned the ids it *owns* under the partition map, within
    ``candidates``: the assignments are disjoint, so a replica a server
    holds of another server's range is never read twice.  Returns
    ``(assignments, report)``, ``assignments`` a list of ``(server,
    RangeSet)`` for every touched server; a server with an empty
    assignment is pruned and never read.
    """
    report = ShardFanoutReport(
        source=routed_source, servers_total=len(archive.servers)
    )
    assignments = []
    total_bytes = 0
    for server in archive.servers:
        assigned = archive.partition_map.ranges_for(server.server_id)
        if candidates is not None:
            assigned = assigned.intersect(candidates)
        if assigned.is_empty():
            report.pruned_server_ids.append(server.server_id)
            continue
        assignments.append((server, assigned))
        report.touched_server_ids.append(server.server_id)
        nbytes = _store_bytes_under(server.stores()[routed_source], assigned)
        seconds = server.node_model.scan_seconds(nbytes)
        report.estimated_bytes_per_server[server.server_id] = nbytes
        report.simulated_seconds_per_server[server.server_id] = seconds
        total_bytes += nbytes
    report.simulated_seconds = max(
        report.simulated_seconds_per_server.values(), default=0.0
    )
    report.simulated_seconds_single_server = archive.node_model.scan_seconds(
        total_bytes
    )
    return assignments, report
