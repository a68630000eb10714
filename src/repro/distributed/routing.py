"""Shard routing: which servers a query plan must touch, and at what cost.

*"Splitting the data among multiple servers enables parallel, scalable
I/O."*  A query's HTM cover is intersected with each server's contiguous
id range (:class:`~repro.storage.partition.PartitionMap`); servers whose
range misses the cover are *pruned* — their container stores are never
read.  Pruning is conservative by the cover's contract (ambiguous
geometry degrades to PARTIAL, never OUTSIDE), so a pruned server cannot
hold a matching object.

The same routing pass prices the fan-out: per-server bytes under the
cover feed the :class:`~repro.storage.diskmodel.NodeModel` for simulated
scan seconds ("a prediction of the output data volume and search time
can be computed from the intersection volume"), and each touched shard's
sweep is admitted to a
:class:`~repro.machines.scheduler.MachineScheduler` as a job on the
shared per-server sweep machine ``sweep:<server_id>`` — one machine per
store, shared by every concurrent query, per the paper's interactive
scan policy.

Replication-aware assignment ("Some of the high-traffic data will be
replicated among servers"): when the archive carries a
:class:`~repro.storage.replication.ReplicationManager`, each shard's
sweep is assigned to the *least-loaded replica* of that shard's data;
a shard whose data has a single copy keeps its sweep on the primary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machines.scheduler import Job

__all__ = [
    "ShardFanoutReport",
    "route_plan",
    "assign_sweep_servers",
    "scan_jobs_for",
]


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
    #: shard server id -> server id chosen to run that shard's sweep
    #: (differs from the shard id only under replication)
    sweep_assignments: dict = field(default_factory=dict)
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
    if candidates is None:
        return store.total_bytes()
    snapshot = store.snapshot
    rows = snapshot.sizes[candidates.contains_array(snapshot.ids)].sum()
    return int(rows) * snapshot.arena.itemsize


def assign_sweep_servers(touched_ids, replication=None):
    """Pick the server that runs each touched shard's sweep.

    Consults the :class:`~repro.storage.replication.ReplicationManager`
    when one is given: a shard whose containers have replicas may have
    its sweep served by any server holding a copy, and the least-loaded
    one is chosen (the choice is charged to ``server_load`` so repeated
    assignments spread).  Without replication — or for shards with no
    replicated containers — the shard's only copy is its primary, so the
    sweep stays there.

    Returns ``{shard_server_id: executing_server_id}``.  Note the
    reproduction keeps container data in process memory, so a replica
    assignment redirects the *load accounting and machine name*; the
    rows themselves are read from the primary's resident store.
    """
    replica_holders = {}
    if replication is not None:
        # One pass over the replica table, grouped by primary — not a
        # rescan per touched shard.
        for container_id, extra in replication.replicas.items():
            primary = replication.primary_for(container_id)
            replica_holders.setdefault(primary, set()).update(
                int(s) for s in extra
            )
    assignment = {}
    for shard_id in touched_ids:
        shard_id = int(shard_id)
        copies = sorted({shard_id} | replica_holders.get(shard_id, set()))
        if len(copies) > 1:
            target = min(copies, key=lambda s: replication.server_load[s])
            replication.server_load[target] += 1
        else:
            target = shard_id
        assignment[shard_id] = target
    return assignment


def route_plan(archive, routed_source, candidates):
    """Split the archive's servers into (touched, report) for one plan.

    ``candidates`` is the cover's candidate :class:`RangeSet` at
    container depth, or ``None`` for a full scan (all servers touched).
    Pruned servers are recorded but never read.  Each touched shard's
    sweep is assigned to a replica server when the archive has a
    :class:`~repro.storage.replication.ReplicationManager` attached
    (``archive.replication``).
    """
    report = ShardFanoutReport(
        source=routed_source, servers_total=len(archive.servers)
    )
    if candidates is None:
        touched_ids = {server.server_id for server in archive.servers}
    else:
        touched_ids = archive.partition_map.servers_for_rangeset(candidates)
    touched = []
    for server in archive.servers:
        if server.server_id in touched_ids:
            touched.append(server)
            report.touched_server_ids.append(server.server_id)
        else:
            report.pruned_server_ids.append(server.server_id)

    total_bytes = 0
    for server in touched:
        store = server.stores()[routed_source]
        nbytes = _store_bytes_under(store, candidates)
        seconds = server.node_model.scan_seconds(nbytes)
        report.estimated_bytes_per_server[server.server_id] = nbytes
        report.simulated_seconds_per_server[server.server_id] = seconds
        total_bytes += nbytes
    report.sweep_assignments = assign_sweep_servers(
        report.touched_server_ids,
        replication=getattr(archive, "replication", None),
    )
    report.simulated_seconds = max(
        report.simulated_seconds_per_server.values(), default=0.0
    )
    report.simulated_seconds_single_server = archive.node_model.scan_seconds(
        total_bytes
    )
    return touched, report


def scan_jobs_for(label, report, arrival_time=0.0):
    """One (unscheduled) interactive sweep job per touched shard.

    The single source of the ``sweep:<server_id>`` machine-name and
    per-server duration convention: the session layer's admission
    (``Session._admit``) builds its jobs here and admits them
    interactively — every per-server job starts at its arrival time and
    overlaps freely with other queries riding the same sweep, per the
    paper's policy for the sweep machines.  The machine is the *executing*
    server's shared sweep (the replica assignment), while the duration
    prices the shard's resident bytes.
    """
    return [
        Job(
            name=f"{label}@server{server_id}",
            machine=f"sweep:{report.sweep_assignments.get(server_id, server_id)}",
            duration=report.simulated_seconds_per_server.get(server_id, 0.0),
            arrival_time=arrival_time,
        )
        for server_id in report.touched_server_ids
    ]
