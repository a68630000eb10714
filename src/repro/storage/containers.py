"""Clustering containers keyed by the spatial index.

*"Data can be quantized into containers.  Each container has objects of
similar properties, e.g. colors, from the same region of the sky.  If the
containers are stored as clusters, data locality will be very high - if an
object satisfies a query, it is likely that some of the object's 'friends'
will as well."*

A :class:`ContainerStore` clusters an object table by the occupied HTM
trixels at a chosen depth, stored as clusters: all rows sorted by
trixel id under a CSR **index** (the sorted ids and their row offsets),
so a trixel is a row range and a sweep reads contiguous bytes.  The rows
themselves are a few immutable **runs**, read-only record arrays that
each hold whole trixels in sweep order: a build is one run, and a load
copies only the stretch of rows it lands in (its *extent*) into one new
run and shares every other run with the state before it, so a load
costs its chunk, not the archive.  No run is shorter than a sweep step
(:data:`STEP_PAGES` pages) unless it is the whole store, so a store of
``bytes`` holds at most ``bytes / (STEP_PAGES * PAGE_BYTES) + 1`` runs.
The trixel is the unit of the *index* — covers, placement and delivery
claims name trixels.  The unit of *reading* is a **page**, a fixed
:data:`PAGE_BYTES` slice of the rows in sweep order (runs do not cut
pages): a trixel belongs to the page its rows start in, so a store
holds about ``bytes / PAGE_BYTES`` pages however finely its trixels cut
the sky, and a narrow tag store has as many times fewer pages as its
rows are narrower.  The sweep steps over pages and the buffer pool
accounts them.

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
from bisect import bisect_right

import numpy as np

from repro.catalog.table import ObjectTable, concat_records, take_records
from repro.htm.mesh import depth_id_bounds, lookup_ids_from_vectors
from repro.storage.buffer import BufferPool

__all__ = [
    "PAGE_BYTES",
    "STEP_PAGES",
    "ContainerStore",
    "StoreSnapshot",
    "DuplicateKeyError",
    "repeated_keys",
]

#: bytes of rows per page, the unit the sweep steps over and the buffer
#: pool accounts (a trixel larger than a page is one page of its own)
PAGE_BYTES = 64 * 1024

#: pages a live sweep step reads, and the shortest run a load leaves:
#: the step amortizes the lock cycle and queue handoff without
#: coarsening join/complete granularity (steps still break at wrap
#: boundaries and completion points).  Thirty-two 64 KiB pages:
#: ``scan_sweep`` ops/s medians 276, 293, 321, 334 at 8, 16, 32, 64
#: pages, ``cone_search`` 232, 235, 236, 225 (4 seeds)
STEP_PAGES = 32


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

    Trixel ``ids[k]`` owns rows ``offsets[k]:offsets[k + 1]`` (``sizes[k]``
    of them), in load order, and lies in the page those rows start in
    (:meth:`pages`).  The rows are the read-only arrays ``runs``, each
    whole trixels in sweep order: run ``r`` holds trixels
    ``run_first[r]:run_first[r + 1]``, rows ``run_rows[r]:run_rows[r + 1]``
    (both lists end with the totals).  ``keys`` holds the ``objid``
    values sorted (``None`` for a schema without one), and ``rewritten``
    the bytes making this snapshot copied.  A mutation builds the next
    snapshot — a load merges its rows into one new run over its extent
    and its keys into the sorted ones, and shares the other runs — and
    the store swaps it in, so a reader holding one never sees half a
    load.
    """

    __slots__ = (
        "runs",
        "run_first",
        "run_rows",
        "dtype",
        "ids",
        "offsets",
        "sizes",
        "keys",
        "rewritten",
        "_lists",
        "_pages",
    )

    def __init__(self, runs, run_first, ids, offsets, keys, rewritten):
        for run in runs:
            run.flags.writeable = False  # views of it leave the store
        self.runs, self.run_first, self.dtype = runs, run_first, runs[0].dtype
        self.ids, self.offsets, self.keys = ids, offsets, keys
        self.run_rows = offsets[run_first].tolist()
        self.sizes = np.diff(offsets)
        self.rewritten = rewritten
        self._lists = self._pages = None

    @classmethod
    def build(cls, data, row_ids):
        """One run of ``data``: one argsort, one record gather, one sort
        of the keys."""
        keys = np.sort(data["objid"]) if "objid" in data.dtype.names else None
        data, ids, offsets = _grouped(data, row_ids)
        return cls([data], [0, len(ids)], ids, offsets, keys, data.nbytes)

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
            before = self.offsets * self.dtype.itemsize
            opens = np.diff(before[:-1] // PAGE_BYTES, prepend=-1) > 0
            self._pages = [
                (np.cumsum(opens) - 1).tolist(),
                np.append(np.flatnonzero(opens), len(opens)).tolist(),
                before.tolist(),
            ]
        return self._pages

    def parts(self, spans):
        """Sorted, disjoint ``(k0, k1)`` trixel index ``spans`` cut at
        run starts: ``(run, first_row, spans)`` for each run they meet,
        in order, ``first_row`` the run's first row in the snapshot."""
        runs = self.runs
        if len(runs) == 1:
            return ((runs[0], 0, spans),)
        first, parts, end = self.run_first, [], 0
        for k0, k1 in spans:
            while k0 < k1:
                if k0 >= end:
                    r = bisect_right(first, k0) - 1
                    end = first[r + 1]
                    parts.append((runs[r], self.run_rows[r], []))
                parts[-1][2].append((k0, min(k1, end)))
                k0 = min(k1, end)
        return parts

    def appended(self, data, row_ids):
        """``(next snapshot, touched ids)``: ``data`` grouped by container
        once and merged, each group after its container's rows, with the
        old rows of the load's extent (:meth:`_extent`) into one new run
        — one byte copy per stretch of old rows and one per group.  The
        runs outside the extent are shared, those it cuts as views."""
        data, touched, bounds = _grouped(data, row_ids)
        if not len(data):
            return self, touched
        k = np.searchsorted(self.ids, touched)
        held = np.isin(touched, self.ids, assume_unique=True)
        a, b = self._extent(int(k[0]), int(k[-1] + held[-1]), len(data))
        rows, offsets = self.run_rows, self.offsets
        lo, hi = int(offsets[a]), int(offsets[b])
        run = np.empty(hi - lo + len(data), dtype=data.dtype)
        out, new, width = run.view(np.uint8), data.view(np.uint8), data.itemsize

        def old(start, stop, to):
            """Copy stored rows ``start:stop`` to row ``to`` of the run."""
            while start < stop:
                r = bisect_right(rows, start) - 1
                end = min(stop, rows[r + 1])
                source = self.runs[r].view(np.uint8)
                out[to * width : (to + end - start) * width] = source[
                    (start - rows[r]) * width : (end - rows[r]) * width
                ]
                to, start = to + end - start, end

        # Each group goes where its container's rows end (a new
        # container's at its sorted place).
        copied = lo
        for at, g0, g1 in zip(offsets[k + held].tolist(), bounds.tolist(), bounds[1:].tolist()):
            old(copied, at, copied - lo + g0)
            out[(at - lo + g0) * width : (at - lo + g1) * width] = new[g0 * width : g1 * width]
            copied = at
        old(copied, hi, copied - lo + len(data))

        ids = np.insert(self.ids, k[~held], touched[~held])
        sizes = np.zeros(len(ids), dtype=np.int64)
        sizes[np.searchsorted(ids, self.ids)] = self.sizes
        sizes[np.searchsorted(ids, touched)] += np.diff(bounds)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        keys = self.keys
        if keys is not None:
            new = np.sort(data["objid"])
            keys = np.insert(keys, np.searchsorted(keys, new), new)
        runs, first = self._around(a, b, run, len(ids) - len(self.ids))
        return StoreSnapshot(runs, first, ids, offsets, keys, run.nbytes), touched

    def _extent(self, a, b, added):
        """The old trixel indices ``[a, b)`` a load of ``added`` rows
        into trixels ``a`` to ``b`` rewrites: ``[a, b)`` widened so that
        no run it cuts leaves a piece shorter than a sweep step, and the
        new run is no shorter either (growing by whole trixels, into the
        rows after it first) unless it is the whole store."""
        least = -(-STEP_PAGES * PAGE_BYTES // self.dtype.itemsize)  # rows
        first, rows, offsets, n = self.run_first, self.run_rows, self.offsets, len(self.ids)

        def absorbed(a, b):
            if a > 0:  # the run holding trixel a - 1, to row offsets[a]
                r = bisect_right(first, a - 1) - 1
                if offsets[a] - rows[r] < least:
                    a = first[r]
            if b < n:  # the run holding trixel b, from row offsets[b]
                r = bisect_right(first, b) - 1
                if rows[r + 1] - offsets[b] < least:
                    b = first[r + 1]
            return a, b

        a, b = absorbed(a, b)
        short = least - (offsets[b] - offsets[a] + added)
        if short > 0:
            b = int(np.searchsorted(offsets, offsets[b] + short))
            if b > n:
                b = n
                a = int(np.searchsorted(offsets, offsets[n] + added - least, "right"))
                a = max(a - 1, 0)
            a, b = absorbed(a, b)
        return a, b

    def _around(self, a, b, run, added):
        """``(runs, run_first)`` with ``run`` in place of old trixels
        ``[a, b)`` and ``added`` trixels more: the runs before and after
        shared, a piece of a run the extent cuts as a view of it."""
        if a == 0 and b == len(self.ids):
            return [run], [0, b + added]
        first, rows, offsets = self.run_first, self.run_rows, self.offsets
        r = bisect_right(first, a) - 1
        runs, starts = self.runs[:r], first[:r]
        if offsets[a] > rows[r]:
            runs.append(self.runs[r][: offsets[a] - rows[r]])
            starts.append(first[r])
        runs.append(run)
        starts.append(a)
        r = bisect_right(first, b) - 1
        if offsets[b] > rows[r]:
            runs.append(self.runs[r][offsets[b] - rows[r] :])
            starts.append(b + added)
            r += 1
        runs.extend(self.runs[r:])
        starts.extend(f + added for f in first[r:])
        return runs, starts


#: process-wide monotone store ids — identity tokens that (unlike
#: ``id()``) are never reused after garbage collection, so a cached
#: result keyed on ``(store_uid, generation)`` can never accidentally
#: validate against a different store that landed at the same address
_STORE_UIDS = itertools.count(1)


class ContainerStore:
    """One catalog clustered by its trixels at a fixed container depth.

    The rows are one :class:`StoreSnapshot` (:attr:`snapshot`): its
    runs and their index.  The API names trixels (``len(store)`` counts
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
        merged group moved in the page numbering (every page when
        ``htm_ids`` is None) — the single seam both result-cache
        invalidation and pool invalidation hang off.  Returns the new
        generation.
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
        trixel once and merged, each group after its trixel's rows, into
        one new run over the stretch of rows they land in
        (:meth:`StoreSnapshot.appended`).  Records the mutation — the
        pages from the first touched trixel's on are invalidated — and
        returns the touched trixel ids, sorted.  Rows whose ``objid`` the store holds, or
        that repeat one, raise :class:`DuplicateKeyError` and leave the
        store as it was."""
        htm_ids = np.asarray(htm_ids, dtype=np.int64)
        if table.data.dtype != self.snapshot.dtype or len(htm_ids) != len(table):
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
        order — for moving and shipping data, not for scanning it (a
        store of several runs copies them into one table)."""
        snapshot = self.snapshot
        runs = snapshot.runs
        data = runs[0] if len(runs) == 1 else concat_records(runs, snapshot.dtype)
        row_ids = np.repeat(snapshot.ids, snapshot.sizes)
        if htm_ids is not None:
            keep = np.isin(row_ids, np.asarray(htm_ids, dtype=np.int64))
            data, row_ids = np.compress(keep, data), row_ids[keep]
        return ObjectTable(self.schema, data), row_ids

    def remove(self, htm_ids):
        """Take trixels out (a rebalance moving them to another server);
        returns their :meth:`rows`.  Rebuilds one run from the rest —
        an offline operation that moves every page, so the whole
        store's pool entries are invalidated."""
        moved = self.rows(htm_ids)
        kept, kept_ids = self.rows(np.setdiff1d(self.snapshot.ids, htm_ids))
        self.snapshot = StoreSnapshot.build(kept.data, kept_ids)
        self.note_mutation()
        return moved

    def total_objects(self):
        """Objects across all containers."""
        return int(self.snapshot.offsets[-1])

    def total_bytes(self):
        """Packed bytes across all containers."""
        return self.total_objects() * self.snapshot.dtype.itemsize

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
            f"objects={self.total_objects()}, runs={len(self.snapshot.runs)})"
        )
