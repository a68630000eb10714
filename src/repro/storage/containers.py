"""Clustering containers keyed by the spatial index.

*"Data can be quantized into containers.  Each container has objects of
similar properties, e.g. colors, from the same region of the sky.  If the
containers are stored as clusters, data locality will be very high - if an
object satisfies a query, it is likely that some of the object's 'friends'
will as well."*

A :class:`ContainerStore` clusters an object table into one container
per occupied HTM trixel at a chosen depth, stored as clusters: all rows
in one **arena** sorted by container id, under a CSR **index** (the
sorted ids and their row offsets), so a container is a row range and a
sweep reads contiguous bytes.  The store places data; it answers no
query.  Rows leave it only through its shared
:class:`~repro.machines.sweep.SweepScanner` (:meth:`ContainerStore.sweeper`),
subscribed with the cover's candidate ranges: containers outside the
cover are never delivered, a scan node point-tests the rows of bisected
ones, and the query's compiled ``WHERE`` — which keeps the region's own
term — tests every delivered row, those of inside containers too.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left

import numpy as np

from repro.catalog.table import ObjectTable, concat_records
from repro.htm.mesh import depth_id_bounds, lookup_ids_from_vectors
from repro.storage.buffer import BufferPool

__all__ = ["ContainerStore", "StoreSnapshot"]


def _grouped(data, row_ids):
    """``data`` stably sorted by container id (each container keeps its
    rows' order), the ids, and each one's first row plus the end."""
    order = np.argsort(row_ids, kind="stable")
    row_ids = row_ids[order]
    starts = np.flatnonzero(np.diff(row_ids, prepend=-1))
    return data.take(order), row_ids[starts], np.append(starts, len(order))


class StoreSnapshot:
    """One immutable state of a store's rows.

    Container ``ids[k]`` owns arena rows ``offsets[k]:offsets[k + 1]``,
    then its ``overflow`` rows (``{htm_id: array}``, added since the
    arena was built, in load order): ``sizes[k]`` rows in all.  A
    mutation builds the next snapshot and the store swaps it in, so a
    reader holding one never sees half a load.
    """

    __slots__ = ("arena", "ids", "offsets", "sizes", "overflow", "_lists")

    def __init__(self, arena, ids, offsets, sizes=None, overflow=None):
        arena.flags.writeable = False  # views of it leave the store
        self.arena, self.ids, self.offsets = arena, ids, offsets
        self.sizes = np.diff(offsets) if sizes is None else sizes
        self.overflow = overflow or {}
        self._lists = None

    @classmethod
    def build(cls, data, row_ids):
        """A fresh arena of ``data``: one argsort, one take."""
        return cls(*_grouped(data, row_ids))

    def lists(self):
        """``(ids, offsets, sizes)`` as lists, made once, for the sweep."""
        if self._lists is None:
            self._lists = [a.tolist() for a in (self.ids, self.offsets, self.sizes)]
        return self._lists

    def find(self, htm_id):
        """Index position of a container id, or -1 when not held."""
        ids = self.lists()[0]
        k = bisect_left(ids, htm_id)
        return k if k < len(ids) and ids[k] == htm_id else -1

    def appended(self, data, row_ids):
        """``(next snapshot, touched ids)``: ``data`` grouped by container
        once, each group after its container's rows.  The arena is shared;
        an earlier overflow is replaced, so no superseded row stays alive."""
        data, touched, bounds = _grouped(data, row_ids)
        overflow = dict(self.overflow)
        bounds_list = bounds.tolist()
        for htm_id, lo, hi in zip(touched.tolist(), bounds_list, bounds_list[1:]):
            earlier = overflow.get(htm_id)
            overflow[htm_id] = (
                data[lo:hi].copy()
                if earlier is None
                else concat_records([earlier, data[lo:hi]], data.dtype)
            )
        ids = np.union1d(self.ids, touched)
        # A new container's arena range is empty, at its sorted place.
        offsets = self.offsets[np.searchsorted(self.ids, ids)]
        offsets = np.append(offsets, len(self.arena))
        sizes = np.zeros(len(ids), dtype=np.int64)
        sizes[np.searchsorted(ids, self.ids)] = self.sizes
        sizes[np.searchsorted(ids, touched)] += np.diff(bounds)
        return StoreSnapshot(self.arena, ids, offsets, sizes, overflow), touched


#: process-wide monotone store ids — identity tokens that (unlike
#: ``id()``) are never reused after garbage collection, so a cached
#: result keyed on ``(store_uid, generation)`` can never accidentally
#: validate against a different store that landed at the same address
_STORE_UIDS = itertools.count(1)


class ContainerStore:
    """All containers of one catalog at a fixed container depth.

    The rows are one :class:`StoreSnapshot` (:attr:`snapshot`): the
    arena, its index, and the overflow :meth:`append` fills.  Queries
    read them as row ranges off the shared
    :class:`~repro.machines.sweep.SweepScanner` (:meth:`sweeper`),
    accounted by the store's :class:`~repro.storage.buffer.BufferPool`
    (several stores, e.g. one server's sources, may share one).

    Every mutation (:meth:`append` and :meth:`remove` call it
    themselves) goes through :meth:`note_mutation`: it bumps the monotone
    ``generation`` — the validity token of any result cached over this
    store — and invalidates the touched pool entries, one seam for both.
    """

    def __init__(self, schema, depth, buffer_pool=None):
        self.schema = schema
        self.depth = int(depth)
        self._lo, self._hi = depth_id_bounds(self.depth)
        #: the current rows; a mutation swaps in the next snapshot
        self.snapshot = StoreSnapshot.build(
            np.empty(0, dtype=schema.numpy_dtype()), np.empty(0, dtype=np.int64)
        )
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
        """Cluster a table into a store: one stable argsort, one take."""
        store = cls(table.schema, depth, buffer_pool=buffer_pool)
        if len(table):
            ids = store.container_ids_for(table)
            store.snapshot = StoreSnapshot.build(table.data, ids)
        return store

    def container_ids_for(self, table):
        """Container (trixel) ids for each row of a table."""
        return lookup_ids_from_vectors(table.positions_xyz(), self.depth)

    def append(self, table, htm_ids):
        """Add rows, ``htm_ids`` naming each one's container: grouped by
        container once, each group after its container's rows (an empty
        store takes them as its arena).  Records the mutation and returns
        the touched container ids, sorted."""
        htm_ids = np.asarray(htm_ids, dtype=np.int64)
        if table.data.dtype != self.snapshot.arena.dtype or len(htm_ids) != len(table):
            raise ValueError("need rows of the store's schema, one id each")
        if len(htm_ids) and not self._lo <= htm_ids.min() <= htm_ids.max() < self._hi:
            raise ValueError(f"ids are not at container depth {self.depth}")
        if not len(self.snapshot.ids):
            self.snapshot = StoreSnapshot.build(table.data, htm_ids)
            touched = self.snapshot.ids
        else:
            self.snapshot, touched = self.snapshot.appended(table.data, htm_ids)
        touched = touched.tolist()
        self.note_mutation(touched)
        return touched

    def rows(self, htm_ids=None):
        """``(table, row_ids)``: the rows of the given containers (every
        container by default) and each row's container id, in container
        order — for moving and shipping data, not for scanning it."""
        snapshot = self.snapshot
        data = snapshot.arena
        row_ids = np.repeat(snapshot.ids, np.diff(snapshot.offsets))
        if snapshot.overflow:
            keys = sorted(snapshot.overflow)
            extra = [snapshot.overflow[k] for k in keys]
            data = concat_records([data, *extra], data.dtype)
            extra_ids = np.repeat(keys, [len(e) for e in extra])
            row_ids = np.concatenate([row_ids, extra_ids])
            order = np.argsort(row_ids, kind="stable")
            data, row_ids = data.take(order), row_ids[order]
        if htm_ids is not None:
            keep = np.isin(row_ids, np.asarray(htm_ids, dtype=np.int64))
            data, row_ids = np.compress(keep, data), row_ids[keep]
        return ObjectTable(self.schema, data), row_ids

    def remove(self, htm_ids):
        """Take containers out (a rebalance moving them to another
        server); returns their :meth:`rows`.  Rebuilds the arena from the
        rest, overflow folded in — an offline operation."""
        moved = self.rows(htm_ids)
        kept, kept_ids = self.rows(np.setdiff1d(self.snapshot.ids, htm_ids))
        self.snapshot = StoreSnapshot.build(kept.data, kept_ids)
        self.note_mutation(htm_ids)
        return moved

    def total_objects(self):
        """Objects across all containers."""
        return int(self.snapshot.sizes.sum())

    def total_bytes(self):
        """Packed bytes across all containers."""
        return self.total_objects() * self.snapshot.arena.itemsize

    def container_sizes(self):
        """``{htm_id: rows}`` for every occupied container."""
        snapshot = self.snapshot
        return dict(zip(snapshot.ids.tolist(), snapshot.sizes.tolist()))

    def occupied_ids(self):
        """Sorted ids of non-empty containers (the snapshot's own list)."""
        return self.snapshot.lists()[0]

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
        return len(self.snapshot.ids)

    def __repr__(self):
        return (
            f"ContainerStore(depth={self.depth}, containers={len(self)}, "
            f"objects={self.total_objects()})"
        )
