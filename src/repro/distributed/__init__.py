"""Distributed query execution: scatter-gather over partition servers.

The first end-to-end multi-layer path of the scaled archive: parser ->
optimizer -> :func:`~repro.query.optimizer.split_plan` -> per-server
shard QETs -> coordinator merge stream (the trees themselves are built
by :mod:`repro.query.physical`).  See
:class:`DistributedQueryEngine` for the executor a session drives and
:mod:`repro.distributed.routing` for HTM-cover shard pruning.
"""

from repro.distributed.engine import DistributedQueryEngine
from repro.distributed.routing import ShardFanoutReport, route_plan

__all__ = [
    "DistributedQueryEngine",
    "ProcessShardCluster",
    "ShardFanoutReport",
    "route_plan",
]


def __getattr__(name):
    # Lazy: repro.distributed.process pulls in the whole net stack,
    # which plain shard-tree users should not pay for (or cycle into).
    if name == "ProcessShardCluster":
        from repro.distributed.process import ProcessShardCluster

        return ProcessShardCluster
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
