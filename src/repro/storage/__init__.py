"""Warehouse substrate: containers, partitioning, replication, loading, I/O model.

The paper's Science Archive clusters objects into *containers* keyed by
the spatial index, spreads containers across commodity servers, copies
each container onto the servers after its owner so a server can die
(:func:`replicate_archive`), and bulk-loads nightly chunks touching each
clustering unit at most once.  Real SDSS ran this on Objectivity/DB federations over a
20-node Intel cluster; we reproduce the data organization in pure Python
plus an explicit simulated-time I/O cost model
(:mod:`repro.storage.diskmodel`) for the throughput arithmetic the paper
reports (150 MB/s per node, 3 GB/s aggregate, 2-minute full scans).
"""

from repro.storage.buffer import BufferPool, BufferPoolStats
from repro.storage.containers import ContainerStore, StoreSnapshot
from repro.storage.partition import Partitioner, PartitionMap
from repro.storage.replication import replicate_archive
from repro.storage.diskmodel import (
    DiskModel,
    NodeModel,
    ClusterModel,
    PAPER_NODE,
    PAPER_CLUSTER,
)
from repro.storage.loader import ChunkLoader, LoadReport
from repro.storage.cluster import DistributedArchive, ServerNode

__all__ = [
    "BufferPool",
    "BufferPoolStats",
    "ContainerStore",
    "StoreSnapshot",
    "Partitioner",
    "PartitionMap",
    "replicate_archive",
    "DiskModel",
    "NodeModel",
    "ClusterModel",
    "PAPER_NODE",
    "PAPER_CLUSTER",
    "ChunkLoader",
    "LoadReport",
    "DistributedArchive",
    "ServerNode",
]
