"""The distributed Science Archive: partitioned servers answering queries.

*"The SDSS data is too large to fit on one disk or even one server.  The
base-data objects will be spatially partitioned among the servers.  As
new servers are added, the data will repartition. ... Splitting the data
among multiple servers enables parallel, scalable I/O."*

:class:`DistributedArchive` owns N :class:`ServerNode` instances, each
holding the containers of one contiguous HTM id range (built by the
:class:`~repro.storage.partition.Partitioner`).  The archive places
and moves data; it does not answer queries.  A session over it
(``Archive.connect(archive=...)``) fans each query out to exactly the
servers whose ranges intersect the query's cover — small queries touch
one server, all-sky scans parallelize over all of them — and prices the
fan-out in a :class:`~repro.distributed.routing.ShardFanoutReport`
(simulated time is the *maximum* over touched servers: shared-nothing
parallelism).  ``add_servers`` repartitions, physically moving
containers and reporting the movement.

Each server can host several co-partitioned *sources* (the primary
catalog plus e.g. its tag table, attached with ``attach_source``), all
sliced by the same :class:`PartitionMap` so a query routed to any source
prunes servers identically.  The distributed executor
(:class:`~repro.distributed.DistributedQueryEngine`) ships each query's
shard sub-plan to every touched server by building scan trees directly
over ``ServerNode.stores()``; ``Archive.connect(stores=server.stores())``
queries one server on its own.

A server's stores are the one record of what it holds.
:func:`~repro.storage.replication.replicate_archive` copies rows into
them and keeps no map beside them; the partition map names each
container's owner and nothing more.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.storage.containers import ContainerStore, DuplicateKeyError, repeated_keys
from repro.storage.diskmodel import PAPER_NODE, NodeModel
from repro.storage.partition import Partitioner

__all__ = ["ServerNode", "DistributedArchive"]


class ServerNode:
    """One commodity server: container stores plus an I/O model.

    ``store`` holds the primary source (named ``source``, conventionally
    ``'photo'``); ``extra_stores`` holds co-partitioned secondary sources
    such as the tag table.
    """

    def __init__(self, server_id, schema, depth, node_model=PAPER_NODE, source="photo"):
        self.server_id = int(server_id)
        self.store = ContainerStore(schema, depth)
        self.node_model = node_model
        self.source = source
        self.extra_stores = {}

    def stores(self):
        """Mapping of source name -> :class:`ContainerStore` on this server."""
        return {self.source: self.store, **self.extra_stores}

    def attach_store(self, name, store):
        """Host a secondary source's container store."""
        if name == self.source:
            raise ValueError(f"{name!r} is the primary source")
        self.extra_stores[name] = store

    def total_objects(self):
        """Objects of the primary source resident on this server."""
        return self.store.total_objects()

    def total_bytes(self):
        """Bytes of the primary source resident on this server."""
        return self.store.total_bytes()

    def __repr__(self):
        return (
            f"ServerNode(id={self.server_id}, objects={self.total_objects()}, "
            f"containers={len(self.store)})"
        )


class DistributedArchive:
    """A partitioned, queryable archive over simulated commodity servers."""

    def __init__(self, schema, depth, n_servers, node_model=PAPER_NODE, source="photo"):
        if n_servers < 1:
            raise ValueError("need at least one server")
        self.schema = schema
        self.depth = int(depth)
        self.node_model = node_model
        self.source = source
        self.extra_schemas = {}
        self.partitioner = Partitioner(self.depth)
        self.servers = [
            ServerNode(k, schema, self.depth, node_model, source=source)
            for k in range(n_servers)
        ]
        self.partition_map = self.partitioner.build({}, n_servers)
        #: set by :func:`~repro.storage.replication.replicate_archive`:
        #: every copy of a container off its owner is a replica
        self.replicated = False

    @classmethod
    def from_table(cls, table, depth, n_servers, node_model=PAPER_NODE, source="photo"):
        """Cluster a catalog and distribute it across ``n_servers``."""
        archive = cls(table.schema, depth, n_servers, node_model, source=source)
        archive.load(table)
        return archive

    def source_schemas(self):
        """Mapping of source name -> :class:`Schema` for every hosted source."""
        return {self.source: self.schema, **self.extra_schemas}

    def attach_source(self, name, table):
        """Host a secondary catalog (e.g. the tag table), co-partitioned.

        The table is clustered at the archive's depth and its containers
        placed by the *current* partition map, so each server holds the
        secondary rows of exactly its own sky area; later repartitions
        move all sources together.
        """
        if name == self.source:
            raise ValueError(f"{name!r} is the primary source")
        if name in self.extra_schemas:
            raise ValueError(f"source {name!r} is already attached")
        self.extra_schemas[name] = table.schema
        for server in self.servers:
            server.attach_store(name, ContainerStore(table.schema, self.depth))
        self._place(name, table, self.servers[0].store.container_ids_for(table))

    # ------------------------------------------------------------------
    # loading and rebalancing
    # ------------------------------------------------------------------

    def load(self, table):
        """Cluster ``table`` and place containers on their owners.

        Rebuilds the partition map from the combined (existing + new)
        weights first, so a bulk load lands balanced.  ``objid`` is a key
        of the whole archive: a row whose ``objid`` any server holds (a
        replica is one more copy of a held row), or that repeats one of
        the table's, raises :class:`DuplicateKeyError` before anything
        moves.
        """
        if "objid" in table.schema:
            new = np.sort(table["objid"])
            held = np.concatenate([server.store.snapshot.keys for server in self.servers])
            repeats = np.union1d(repeated_keys(new), new[np.isin(new, held)])
            if len(repeats):
                raise DuplicateKeyError(f"archive source {self.source!r}", repeats)
        ids = self.servers[0].store.container_ids_for(table)
        self._repartition(ids)
        self._place(self.source, table, ids)

    def _place(self, source_name, table, ids):
        """Append each row to its container's owner, one append per server."""
        owners = self.partition_map.server_for_array(ids)
        for server in self.servers:
            mine = owners == server.server_id
            if mine.any():
                server.stores()[source_name].append(table.select(mine), ids[mine])

    def _combined_weights(self, ids=()):
        weights = Counter(np.asarray(ids, dtype=np.int64).tolist())
        for server in self.servers:
            weights.update(server.store.container_sizes())
        return weights

    def _repartition(self, new_ids=()):
        """Rebuild the partition map over the held rows plus ``new_ids``
        and move containers onto their owners; count the objects moved.
        Replicas are dropped first, so one copy per row moves and is
        weighed: call ``replicate_archive`` again for redundancy."""
        if self.replicated:
            self._replace_misplaced(drop=True)
            self.replicated = False
        weights = self._combined_weights(new_ids)
        self.partition_map = self.partitioner.build(weights, len(self.servers))
        return self._replace_misplaced()

    def _replace_misplaced(self, drop=False):
        """Move containers whose partition-map owner changed (or, with
        ``drop``, remove them); count moves.

        Every hosted source moves together, so a repartition can never
        separate a sky area's primary rows from its secondary (tag) rows.
        """
        moved_objects = 0
        for server in self.servers:
            for source_name, store in server.stores().items():
                ids = store.snapshot.ids
                owners = self.partition_map.server_for_array(ids)
                leaving = ids[owners != server.server_id]
                if len(leaving):
                    table, row_ids = store.remove(leaving)
                    if not drop:
                        self._place(source_name, table, row_ids)
                        moved_objects += len(table)
        return moved_objects

    def add_servers(self, count):
        """Scale out; repartitions and physically moves containers.

        Returns the number of objects moved; replicas are dropped
        (:meth:`_repartition`).
        """
        if count < 1:
            raise ValueError("must add at least one server")
        for k in range(count):
            server = ServerNode(
                len(self.servers), self.schema, self.depth, self.node_model,
                source=self.source,
            )
            for name, schema in self.extra_schemas.items():
                server.attach_store(name, ContainerStore(schema, self.depth))
            self.servers.append(server)
        return self._repartition()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def total_objects(self):
        """Objects across all servers."""
        return sum(s.total_objects() for s in self.servers)

    def server_loads(self):
        """Objects per server (balance inspection)."""
        return {s.server_id: s.total_objects() for s in self.servers}

    def __repr__(self):
        return (
            f"DistributedArchive(servers={len(self.servers)}, "
            f"objects={self.total_objects()}, depth={self.depth})"
        )
