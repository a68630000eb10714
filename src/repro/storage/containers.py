"""Clustering containers keyed by the spatial index.

*"Data can be quantized into containers.  Each container has objects of
similar properties, e.g. colors, from the same region of the sky.  If the
containers are stored as clusters, data locality will be very high - if an
object satisfies a query, it is likely that some of the object's 'friends'
will as well."*

A :class:`ContainerStore` groups an object table into one container per
occupied HTM trixel at a chosen depth.  The store holds and places the
data; it does not answer queries.  Rows leave it one way only — the
store's shared :class:`~repro.machines.sweep.SweepScanner`
(:meth:`ContainerStore.sweeper`), which every scan node subscribes to
with the cover's candidate ranges: containers fully inside the region
are accepted wholesale (no per-object geometry test), fully outside ones
are skipped, bisected ones are point-filtered.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.catalog.table import ObjectTable
from repro.htm.mesh import depth_id_bounds, lookup_ids_from_vectors
from repro.storage.buffer import BufferPool

__all__ = ["Container", "ContainerStore"]


class Container:
    """One clustering unit: the objects of a single trixel."""

    __slots__ = ("htm_id", "table")

    def __init__(self, htm_id, table):
        self.htm_id = int(htm_id)
        self.table = table

    def __len__(self):
        return len(self.table)

    def nbytes(self):
        """Packed bytes stored in this container."""
        return self.table.nbytes()

    def append(self, table):
        """Add rows (a single touch of this clustering unit)."""
        self.table = self.table.concat(table)

    def __repr__(self):
        return f"Container(htm_id={self.htm_id}, rows={len(self)})"


#: process-wide monotone store ids — identity tokens that (unlike
#: ``id()``) are never reused after garbage collection, so a cached
#: result keyed on ``(store_uid, generation)`` can never accidentally
#: validate against a different store that landed at the same address
_STORE_UIDS = itertools.count(1)


class ContainerStore:
    """All containers of one catalog at a fixed container depth.

    Every query's rows come off the store's shared
    :class:`~repro.machines.sweep.SweepScanner` (:meth:`sweeper`), which
    reads runs of containers through the store's
    :class:`~repro.storage.buffer.BufferPool` — the two halves of the
    shared-scan I/O layer.  A pool may be shared between stores (e.g.
    all sources of one partition server) by passing ``buffer_pool``.

    Mutations (chunk loads) must call :meth:`note_mutation`: it bumps
    the store's monotone ``generation`` — the validity token of any
    result cached over this store — and invalidates the touched buffer-
    pool entries, so cache keying and pool invalidation share one seam.
    """

    def __init__(self, schema, depth, buffer_pool=None):
        self.schema = schema
        self.depth = int(depth)
        self._lo, self._hi = depth_id_bounds(self.depth)
        self.containers = {}
        self.buffer_pool = buffer_pool if buffer_pool is not None else BufferPool()
        self._sweeper = None
        #: identity token of this store object (monotone, never reused)
        self.store_uid = next(_STORE_UIDS)
        #: bumped once per mutating operation (chunk load, append, ...);
        #: a cached result derived from generation g is stale iff the
        #: store's generation moved past g
        self.generation = 0

    def note_mutation(self, htm_ids=None):
        """Record one mutating operation against this store.

        Bumps :attr:`generation` and invalidates the buffer pool for the
        touched container ids (all of them when ``htm_ids`` is None) —
        the single seam both result-cache invalidation and pool
        invalidation hang off.  Returns the new generation.
        """
        self.generation += 1
        if htm_ids is None:
            self.buffer_pool.invalidate(self)
        else:
            for htm_id in htm_ids:
                self.buffer_pool.invalidate(self, int(htm_id))
        return self.generation

    @classmethod
    def from_table(cls, table, depth, buffer_pool=None):
        """Cluster a table into a store (one pass, vectorized grouping)."""
        store = cls(table.schema, depth, buffer_pool=buffer_pool)
        if len(table) == 0:
            return store
        ids = store.container_ids_for(table)
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        boundaries = np.nonzero(np.diff(sorted_ids))[0] + 1
        groups = np.split(order, boundaries)
        for group in groups:
            htm_id = int(ids[group[0]])
            store.containers[htm_id] = Container(htm_id, table.take(group))
        return store

    def container_ids_for(self, table):
        """Container (trixel) ids for each row of a table."""
        return lookup_ids_from_vectors(table.positions_xyz(), self.depth)

    def total_objects(self):
        """Objects across all containers."""
        return sum(len(c) for c in self.containers.values())

    def total_bytes(self):
        """Packed bytes across all containers."""
        return sum(c.nbytes() for c in self.containers.values())

    def occupied_ids(self):
        """Sorted ids of non-empty containers."""
        return sorted(self.containers)

    def get_or_create(self, htm_id):
        """Container for an id, creating an empty one if needed."""
        htm_id = int(htm_id)
        if not self._lo <= htm_id < self._hi:
            raise ValueError(f"id {htm_id} is not at container depth {self.depth}")
        if htm_id not in self.containers:
            self.containers[htm_id] = Container(htm_id, ObjectTable(self.schema))
        return self.containers[htm_id]

    # ------------------------------------------------------------------
    # the shared-scan read path
    # ------------------------------------------------------------------

    def read_container(self, htm_id):
        """Read one container's rows through the buffer pool.

        The one-container form of the sweep's
        :meth:`~repro.storage.buffer.BufferPool.fetch_many` — queries do
        not call it, they subscribe to :meth:`sweeper`.  Returns
        ``(table, from_pool)`` where ``from_pool`` says whether the bytes
        were already resident (hit) or physically read (miss).
        """
        return self.buffer_pool.fetch_many(self, [self.containers[int(htm_id)]])[0]

    def sweeper(self):
        """The store's shared sweep scanner (created lazily).

        All concurrent full/indexed scans of this store subscribe to this
        one :class:`~repro.machines.sweep.SweepScanner`, so N queries
        share one circular sweep instead of issuing N independent reads.
        """
        if self._sweeper is None:
            # Imported here: storage must stay importable without the
            # machines package (which imports the query layer).
            from repro.machines.sweep import SweepScanner

            self._sweeper = SweepScanner(self)
        return self._sweeper

    def __len__(self):
        return len(self.containers)

    def __repr__(self):
        return (
            f"ContainerStore(depth={self.depth}, containers={len(self)}, "
            f"objects={self.total_objects()})"
        )
