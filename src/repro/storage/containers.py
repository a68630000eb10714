"""Clustering containers keyed by the spatial index.

*"Data can be quantized into containers.  Each container has objects of
similar properties, e.g. colors, from the same region of the sky.  If the
containers are stored as clusters, data locality will be very high - if an
object satisfies a query, it is likely that some of the object's 'friends'
will as well."*

A :class:`ContainerStore` clusters an object table by the occupied HTM
trixels at a chosen depth, stored as clusters: all rows in one **arena**
sorted by trixel id, under a CSR **index** (the sorted ids and their row
offsets), so a trixel is a row range and a sweep reads contiguous bytes.
The trixel is the unit of the *index* — covers, placement and delivery
claims name trixels.  The unit of *reading* is a **page**, a fixed
:data:`PAGE_BYTES` slice of the arena: a trixel belongs to the page its
arena rows start in, so a store holds about ``bytes / PAGE_BYTES`` pages
however finely its trixels cut the sky, and a narrow tag store has as
many times fewer pages as its rows are narrower.  The sweep steps over
pages and the buffer pool accounts them.

``objid``, the object pointer, is a key of every store whose schema has
one: a snapshot keeps its values sorted (:attr:`StoreSnapshot.keys`),
and a build or an append that would repeat one raises
:class:`DuplicateKeyError` and changes nothing.  The set operations'
pointer semantics and the tag dereference rely on it.

The store places data; it answers no query.  Rows leave it only through
its shared :class:`~repro.machines.sweep.SweepScanner`
(:meth:`ContainerStore.sweeper`), subscribed with the cover's candidate
ranges: trixels outside the cover are never delivered, and the query's
compiled ``WHERE`` — which keeps the region's own term — tests every
delivered row once, those of inside and bisected trixels alike.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.catalog.table import ObjectTable, take_records
from repro.htm.mesh import depth_id_bounds, lookup_ids_from_vectors
from repro.storage.buffer import BufferPool

__all__ = [
    "PAGE_BYTES",
    "ContainerStore",
    "StoreSnapshot",
    "DuplicateKeyError",
    "repeated_keys",
]

#: bytes of arena per page, the unit the sweep steps over and the buffer
#: pool accounts (a trixel larger than a page is one page of its own)
PAGE_BYTES = 64 * 1024


class DuplicateKeyError(ValueError):
    """Rows refused because their ``objid`` is held already or repeats
    among them: ``store`` names where, ``objids`` lists a few of them.
    :meth:`refusing` builds one; the message alone rebuilds it (without
    the two fields), as the client does from a server's error frame."""

    def __init__(self, message, store=None, objids=()):
        super().__init__(message)
        self.store = store
        self.objids = list(objids)

    @classmethod
    def refusing(cls, store, objids):
        """The error for ``store`` refusing the repeated ``objids``."""
        shown = np.asarray(objids)[:5].tolist()
        more = f" and {len(objids) - 5} more" if len(objids) > 5 else ""
        return cls(
            f"{store} refuses rows: objid {shown}{more} already held or repeated",
            store,
            shown,
        )


def repeated_keys(keys):
    """The distinct values that repeat in the sorted array ``keys``."""
    return np.unique(keys[1:][keys[1:] == keys[:-1]])


def _grouped(data, row_ids):
    """``data`` stably sorted by container id (each container keeps its
    rows' order), the ids, and each one's first row plus the end."""
    order = np.argsort(row_ids, kind="stable")
    row_ids = row_ids[order]
    starts = np.flatnonzero(np.diff(row_ids, prepend=-1))
    return take_records(data, order), row_ids[starts], np.append(starts, len(order))


class StoreSnapshot:
    """One immutable state of a store's rows.

    Trixel ``ids[k]`` owns arena rows ``offsets[k]:offsets[k + 1]``
    (``sizes[k]`` of them), in load order, and lies in the page those
    rows start in (:meth:`pages`).  ``keys`` holds the arena's ``objid``
    values sorted (``None`` for a schema without one).  A mutation
    builds the next snapshot — a load merges its rows into a new arena
    and its keys into the sorted ones — and the store swaps it in, so a
    reader holding one never sees half a load.
    """

    __slots__ = ("arena", "ids", "offsets", "sizes", "keys", "_lists", "_pages")

    def __init__(self, arena, ids, offsets, keys=None):
        arena.flags.writeable = False  # views of it leave the store
        self.arena, self.ids, self.offsets, self.keys = arena, ids, offsets, keys
        self.sizes = np.diff(offsets)
        self._lists = self._pages = None

    @classmethod
    def build(cls, data, row_ids):
        """A fresh arena of ``data``: one argsort, one record gather,
        one sort of the keys."""
        keys = np.sort(data["objid"]) if "objid" in data.dtype.names else None
        return cls(*_grouped(data, row_ids), keys)

    def lists(self):
        """``(ids, offsets)`` as lists, made once, for the sweep."""
        if self._lists is None:
            self._lists = [self.ids.tolist(), self.offsets.tolist()]
        return self._lists

    def pages(self):
        """``(page_of, first, bytes_before)`` as lists, made once, for
        the sweep: each trixel's page (numbered densely from 0 in sweep
        order), each page's first trixel index then ``len(ids)``, and
        the bytes of the trixels before each index then the total — so
        page ``p`` holds trixels ``first[p]:first[p + 1]`` and a span's
        bytes are one subtraction."""
        if self._pages is None:
            before = self.offsets * self.arena.itemsize
            opens = np.diff(before[:-1] // PAGE_BYTES, prepend=-1) > 0
            self._pages = [
                (np.cumsum(opens) - 1).tolist(),
                np.append(np.flatnonzero(opens), len(opens)).tolist(),
                before.tolist(),
            ]
        return self._pages

    def appended(self, data, row_ids):
        """``(next snapshot, touched ids)``: ``data`` grouped by container
        once and merged into a new arena, each group after its
        container's rows — one byte copy per run of untouched rows and
        one per group."""
        data, touched, bounds = _grouped(data, row_ids)
        k = np.searchsorted(self.ids, touched)
        held = np.isin(touched, self.ids, assume_unique=True)
        # Each group goes where its container's rows end (a new
        # container's at its sorted place).
        at = self.offsets[k + held].tolist()
        arena = np.empty(len(self.arena) + len(data), dtype=data.dtype)
        out, old, new = (a.view(np.uint8) for a in (arena, self.arena, data))
        width, copied = data.itemsize, 0
        for a, lo, hi in zip(at, bounds.tolist(), bounds[1:].tolist()):
            out[(copied + lo) * width : (a + lo) * width] = old[copied * width : a * width]
            out[(a + lo) * width : (a + hi) * width] = new[lo * width : hi * width]
            copied = a
        out[(copied + len(data)) * width :] = old[copied * width :]
        ids = np.insert(self.ids, k[~held], touched[~held])
        sizes = np.zeros(len(ids), dtype=np.int64)
        sizes[np.searchsorted(ids, self.ids)] = self.sizes
        sizes[np.searchsorted(ids, touched)] += np.diff(bounds)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        keys = self.keys
        if keys is not None:
            new = np.sort(data["objid"])
            keys = np.insert(keys, np.searchsorted(keys, new), new)
        return StoreSnapshot(arena, ids, offsets, keys), touched


#: process-wide monotone store ids — identity tokens that (unlike
#: ``id()``) are never reused after garbage collection, so a cached
#: result keyed on ``(store_uid, generation)`` can never accidentally
#: validate against a different store that landed at the same address
_STORE_UIDS = itertools.count(1)


class ContainerStore:
    """One catalog clustered by its trixels at a fixed container depth.

    The rows are one :class:`StoreSnapshot` (:attr:`snapshot`): the
    arena and its index.  The API names trixels (``len(store)`` counts
    the occupied ones); queries read their rows as row ranges off the
    shared :class:`~repro.machines.sweep.SweepScanner`
    (:meth:`sweeper`), which steps over the snapshot's pages, each
    accounted by the store's :class:`~repro.storage.buffer.BufferPool`
    (several stores, e.g. one server's sources, may share one).

    Every mutation (:meth:`append` and :meth:`remove` call it
    themselves) goes through :meth:`note_mutation`: it bumps the monotone
    ``generation`` — the validity token of any result cached over this
    store — and invalidates the moved pool entries, one seam for both.
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

        Bumps :attr:`generation` and invalidates the buffer pool from
        the page holding the first of the sorted, touched trixel ids in
        the current snapshot to the end, because every row after a
        merged group moved (every page when ``htm_ids`` is None) — the
        single seam both result-cache invalidation and pool invalidation
        hang off.  Returns the new generation.
        """
        self.generation += 1
        if htm_ids is None:
            self.buffer_pool.invalidate(self)
        elif len(htm_ids):
            k = int(np.searchsorted(self.snapshot.ids, htm_ids[0]))
            self.buffer_pool.invalidate(self, self.snapshot.pages()[0][k])
        return self.generation

    def _keyed(self, snapshot):
        """``snapshot``, unless its keys repeat an ``objid``: then
        :class:`DuplicateKeyError`, before the store takes it."""
        if snapshot.keys is not None:
            repeats = repeated_keys(snapshot.keys)
            if len(repeats):
                raise DuplicateKeyError.refusing(
                    f"store {self.store_uid} ({self.schema.name})", repeats
                )
        return snapshot

    @classmethod
    def from_table(cls, table, depth, buffer_pool=None):
        """Cluster a table into a store: one stable argsort, one record
        gather; refuses a table that repeats an ``objid``."""
        store = cls(table.schema, depth, buffer_pool=buffer_pool)
        if len(table):
            ids = store.container_ids_for(table)
            store.snapshot = store._keyed(StoreSnapshot.build(table.data, ids))
        return store

    def container_ids_for(self, table):
        """Container (trixel) ids for each row of a table."""
        return lookup_ids_from_vectors(table.positions_xyz(), self.depth)

    def append(self, table, htm_ids):
        """Add rows, ``htm_ids`` naming each one's trixel: grouped by
        trixel once and merged into a new arena, each group after its
        trixel's rows.  Records the mutation — the pages from the first
        touched trixel's on are invalidated — and returns the touched
        trixel ids, sorted.  Rows whose ``objid`` the store holds, or
        that repeat one, raise :class:`DuplicateKeyError` and leave the
        store as it was."""
        htm_ids = np.asarray(htm_ids, dtype=np.int64)
        if table.data.dtype != self.snapshot.arena.dtype or len(htm_ids) != len(table):
            raise ValueError("need rows of the store's schema, one id each")
        if len(htm_ids) and not self._lo <= htm_ids.min() <= htm_ids.max() < self._hi:
            raise ValueError(f"ids are not at container depth {self.depth}")
        snapshot, touched = self.snapshot.appended(table.data, htm_ids)
        self.snapshot = self._keyed(snapshot)
        touched = touched.tolist()
        self.note_mutation(touched)
        return touched

    def rows(self, htm_ids=None):
        """``(table, row_ids)``: the rows of the given containers (every
        container by default) and each row's container id, in container
        order — for moving and shipping data, not for scanning it."""
        snapshot = self.snapshot
        data = snapshot.arena
        row_ids = np.repeat(snapshot.ids, snapshot.sizes)
        if htm_ids is not None:
            keep = np.isin(row_ids, np.asarray(htm_ids, dtype=np.int64))
            data, row_ids = np.compress(keep, data), row_ids[keep]
        return ObjectTable(self.schema, data), row_ids

    def remove(self, htm_ids):
        """Take trixels out (a rebalance moving them to another server);
        returns their :meth:`rows`.  Rebuilds the arena from the rest —
        an offline operation that moves every page, so the whole
        store's pool entries are invalidated."""
        moved = self.rows(htm_ids)
        kept, kept_ids = self.rows(np.setdiff1d(self.snapshot.ids, htm_ids))
        self.snapshot = StoreSnapshot.build(kept.data, kept_ids)
        self.note_mutation()
        return moved

    def total_objects(self):
        """Objects across all containers."""
        return len(self.snapshot.arena)

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
