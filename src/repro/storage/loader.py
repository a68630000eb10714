"""Chunked bulk loading of the Science Archive.

*"Datasets are sent in coherent chunks. ... Loading data into the Science
Archive could take a long time if the data were not clustered properly.
Efficiency is important, since about 20 GB will be arriving daily. ...
Our load design minimizes disk accesses, touching each clustering unit at
most once during a load.  The chunk data is first examined to construct an
index.  This determines where each object will be located and creates a
list of databases and containers that are needed.  Then data is inserted
into the containers in a single pass over the data objects."*

:class:`ChunkLoader` implements exactly that two-phase design and counts
container touches, so the benchmark can contrast it with naive row-at-a-
time insertion (which touches a container once per *object*).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ChunkLoader", "LoadReport"]


@dataclass
class LoadReport:
    """Accounting for one chunk load."""

    objects_loaded: int = 0
    containers_touched: int = 0
    containers_created: int = 0
    #: partition-map servers the load touched (given a partition map)
    databases_touched: int = 0
    #: container touches a naive per-object insert would have made
    naive_touches: int = 0
    #: bytes the load copied: its chunk and the stored rows of its
    #: extent (the store's other runs are shared, not rewritten)
    bytes_rewritten: int = 0

    def touch_savings(self):
        """Naive touches per actual touch (>> 1 for clustered chunks)."""
        if self.containers_touched == 0:
            return float("inf") if self.naive_touches else 1.0
        return self.naive_touches / self.containers_touched


class ChunkLoader:
    """Two-phase loader into a :class:`~repro.storage.containers.ContainerStore`.

    A load touches the stretch of the store's rows from its first
    container to its last (its *extent*, widened so no run it cuts, nor
    the one it writes, is shorter than a sweep step): it copies those
    rows and the chunk into one new run and shares the store's other
    runs, so its cost follows the chunk, not the archive
    (``LoadReport.bytes_rewritten``).  Optionally takes a partition map
    to report how many servers' databases a load touches
    (``LoadReport.databases_touched``).
    """

    def __init__(self, store, partition_map=None):
        self.store = store
        self.partition_map = partition_map
        self.history = []

    def load_chunk(self, chunk_table):
        """Load one chunk; returns a :class:`LoadReport`.

        Phase 1 (index construction): compute each object's container id
        — *no* container is opened yet.  Phase 2 (single pass):
        :meth:`~repro.storage.containers.ContainerStore.append` groups
        the rows by container and adds each group, one touch per
        container.
        """
        report = LoadReport()
        n = len(chunk_table)
        report.objects_loaded = n
        report.naive_touches = n
        if n == 0:
            self.history.append(report)
            return report

        # Phase 1 locates each object; phase 2, the store's append, also
        # records the mutation (generation, buffer-pool invalidation).
        ids = self.store.container_ids_for(chunk_table)
        before = len(self.store)
        needed = self.store.append(chunk_table, ids)
        report.containers_touched = len(needed)
        report.containers_created = len(self.store) - before
        report.bytes_rewritten = self.store.snapshot.rewritten
        if self.partition_map is not None:
            servers = {self.partition_map.server_for(cid) for cid in needed}
            report.databases_touched = len(servers)

        self.history.append(report)
        return report

    def load_chunks(self, chunks):
        """Load a sequence of chunks; returns the list of reports."""
        return [self.load_chunk(chunk) for chunk in chunks]

    def total_objects_loaded(self):
        """Objects loaded across all chunks so far."""
        return sum(r.objects_loaded for r in self.history)
