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
themselves are a few immutable **runs** (:class:`Run`), read-only record
arrays that each hold whole trixels in sweep order with their own index
and pages, made once when the run is written: a build is one run, and a
load copies only the stretch of rows it lands in (its *extent*) into
one new run and shares every other run — its index and its pages too —
with the state before it, so a load costs its chunk, not the archive.
No run is shorter than a sweep step (:data:`STEP_PAGES` pages) unless
it is the whole store, so a store of ``bytes`` holds at most
``bytes / (STEP_PAGES * PAGE_BYTES) + 1`` runs.
The trixel is the unit of the *index* — covers, placement and delivery
claims name trixels.  The unit of *reading* is a **page**, a fixed
:data:`PAGE_BYTES` slice of a run's rows, numbered within the run: a
trixel belongs to the page its rows start in, so a page never spans
two runs, a store holds about ``bytes / PAGE_BYTES`` pages (one more
at most per run) however finely its trixels cut the sky, and a narrow
tag store has as many times fewer pages as its rows are narrower.  The
sweep steps over pages and the buffer pool accounts them, keyed by
their run's token plus their number there, so a load that keeps a page
keeps it resident.

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

import copy
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
    "Run",
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


#: process-wide monotone run tokens, each the pool key of its run's page
#: 0: page ``p``'s key is ``token + p`` (a run holds fewer than 2**32
#: pages), so, like ``store_uid``, a key is never reused
_RUN_TOKENS = itertools.count(1 << 32, 1 << 32)


class Run:
    """Whole trixels of a store's rows in sweep order and their index,
    made once when a build or a load writes them and shared by every
    later snapshot that keeps them.

    ``data`` holds the read-only records, ``ids`` the trixel ids and
    ``offsets`` their run-relative first rows then the run's length
    (numpy, and as ``id_list`` / ``offset_list`` for the sweep).  The
    run's pages are numbered from 0 within it — a trixel lies in the
    page its rows start in, so a page never spans two runs: ``page_of``
    holds each trixel's page, ``page_first`` each page's first trixel
    then ``len(ids)``, ``page_bytes`` each page's bytes, and ``before``
    the bytes before each trixel then the total, so page ``p`` is
    trixels ``page_first[p]:page_first[p + 1]`` and a span's bytes are
    one subtraction.  ``token`` (monotone, never
    reused) names the run's pages in the buffer pool: page ``p``'s key
    is ``token + p``.

    A snapshot holds the run's trixels ``lo:hi`` — all of them until a
    load cuts the run: :meth:`cut` keeps whole pages of it and shares
    every piece above, so a page no load rewrote keeps its key.
    """

    __slots__ = (
        "token",
        "data",
        "ids",
        "offsets",
        "id_list",
        "offset_list",
        "page_of",
        "page_first",
        "page_bytes",
        "before",
        "lo",
        "hi",
    )

    def __init__(self, data, ids, offsets):
        data.flags.writeable = False  # views of it leave the store
        self.token = next(_RUN_TOKENS)
        self.data, self.ids, self.offsets = data, ids, offsets
        self.id_list, self.offset_list = ids.tolist(), offsets.tolist()
        before = offsets * data.itemsize
        opens = np.diff(before[:-1] // PAGE_BYTES, prepend=-1) > 0
        first = np.append(np.flatnonzero(opens), len(opens))
        self.page_of = (np.cumsum(opens) - 1).tolist()
        self.page_first, self.page_bytes = first.tolist(), np.diff(before[first]).tolist()
        self.before = before.tolist()
        self.lo, self.hi = 0, len(ids)

    def cut(self, lo, hi):
        """The run's trixels ``lo:hi`` (whole pages), sharing its pieces."""
        run = copy.copy(self)
        run.lo, run.hi = lo, hi
        return run

    @property
    def rows(self):
        """The records of the trixels the snapshot holds (a view)."""
        return self.data[self.offset_list[self.lo] : self.offset_list[self.hi]]

    def pages(self, a, b):
        """The pages trixels ``a:b`` (``a < b``) lie in."""
        return range(self.page_of[a], self.page_of[b - 1] + 1)


class StoreSnapshot:
    """One immutable state of a store's rows.

    Trixel ``ids[k]`` owns rows ``offsets[k]:offsets[k + 1]`` (``sizes[k]``
    of them), in load order.  The rows are the :class:`Run` windows
    ``runs``, each whole trixels and whole pages in sweep order: window
    ``r`` holds trixels ``run_first[r]:run_first[r + 1]``, rows
    ``run_rows[r]:run_rows[r + 1]`` (both lists end with the totals), and
    :meth:`locate` turns a trixel index into a window and an index into
    its run's lists.  ``keys`` holds the ``objid`` values sorted
    (``None`` for a schema without one), and ``rewritten`` the bytes
    making this snapshot copied.  A mutation builds the next snapshot —
    a load merges its rows into one new run over its extent and its keys
    into the sorted ones, and shares the other runs and their index —
    and the store swaps it in, so a reader holding one never sees half
    a load.
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
    )

    def __init__(self, runs, dtype, ids, sizes, keys, rewritten):
        self.runs, self.dtype = runs, dtype
        self.ids, self.sizes, self.keys = ids, sizes, keys
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.run_first = list(itertools.accumulate((r.hi - r.lo for r in runs), initial=0))
        self.run_rows = list(
            itertools.accumulate((r.offset_list[r.hi] - r.offset_list[r.lo] for r in runs), initial=0)
        )
        self.rewritten = rewritten

    @classmethod
    def build(cls, data, row_ids):
        """One run of ``data``: one argsort, one record gather, one sort
        of the keys (no run for no rows)."""
        keys = np.sort(data["objid"]) if "objid" in data.dtype.names else None
        data, ids, offsets = _grouped(data, row_ids)
        runs = [Run(data, ids, offsets)] if len(ids) else []
        return cls(runs, data.dtype, ids, np.diff(offsets), keys, data.nbytes)

    def locate(self, k):
        """``(r, j)``: trixel index ``k`` is trixel ``j`` of window ``r``'s
        run; ``(len(runs), 0)`` for ``k == len(ids)``."""
        if k == len(self.ids):
            return len(self.runs), 0
        r = bisect_right(self.run_first, k) - 1
        return r, k - self.run_first[r] + self.runs[r].lo

    def pages(self):
        """``(pool key, bytes)`` for every page, in sweep order."""
        return [
            (run.token + p, run.page_bytes[p])
            for run in self.runs
            for p in run.pages(run.lo, run.hi)
        ]

    def added_since(self, previous):
        """The ids this snapshot holds and the ``previous`` one lacked,
        sorted: those of the runs it wrote since that the previous one
        does not hold (a run both hold adds none)."""
        held = {run.token for run in previous.runs}
        new = [run.ids[run.lo : run.hi] for run in self.runs if run.token not in held]
        ids = np.concatenate(new) if new else self.ids[:0]
        if not len(previous.ids):
            return ids
        k = np.minimum(np.searchsorted(previous.ids, ids), len(previous.ids) - 1)
        return ids[previous.ids[k] != ids]

    def repeats(self, objids):
        """The distinct ``objids`` this snapshot holds or that repeat
        among them, sorted: each checked against its sorted neighbours
        among the held keys only."""
        new = np.sort(objids)
        keys = self.keys
        held = new[:0]
        if len(keys):
            k = np.minimum(np.searchsorted(keys, new), len(keys) - 1)
            held = new[keys[k] == new]
        return np.union1d(held, repeated_keys(new))

    def appended(self, data, row_ids):
        """``(next snapshot, touched ids, replaced pages)``: ``data``
        grouped by container once and merged, each group after its
        container's rows, with the old rows of the load's extent
        (:meth:`_extent`) into one new run — one scatter of the chunk
        and one per run the old rows come from — whose index and pages
        are made once.  The runs outside the extent are shared, those it
        cuts as windows; ``replaced`` names the pool pages of the old
        rows the new run took over."""
        data, touched, bounds = _grouped(data, row_ids)
        n = len(self.ids)
        k = np.searchsorted(self.ids, touched)
        held = self.ids[np.minimum(k, n - 1)] == touched if n else np.zeros(len(k), dtype=bool)
        a, b = self._extent(int(k[0]), int(k[-1] + held[-1]), len(data))
        offsets, rows = self.offsets, self.run_rows
        lo, hi = int(offsets[a]), int(offsets[b])

        # Each group goes where its container's rows end (a new
        # container's at its sorted place); the old rows fill the other
        # slots in order.
        counts = np.diff(bounds)
        chunk = np.repeat(offsets[k + held] - lo, counts) + np.arange(len(data))
        run = np.empty(hi - lo + len(data), dtype=data.dtype)
        void = np.dtype((np.void, data.itemsize))
        out = run.view(void)
        out[chunk] = data.view(void)
        old = np.ones(len(run), dtype=bool)
        old[chunk] = False
        old = np.flatnonzero(old)
        start = lo
        while start < hi:
            r = bisect_right(rows, start) - 1
            end = min(hi, rows[r + 1])
            source = self.runs[r].rows[start - rows[r] : end - rows[r]]
            out[old[start - lo : end - lo]] = source.view(void)
            start = end

        fresh = ~held
        ids = np.insert(self.ids, k[fresh], touched[fresh])
        sizes = np.insert(self.sizes, k[fresh], 0)
        sizes[k + np.cumsum(fresh) - fresh] += counts
        stop = b + int(fresh.sum())
        made = Run(run, ids[a:stop].copy(), np.concatenate([[0], np.cumsum(sizes[a:stop])]))
        keys = self.keys
        if keys is not None:
            new = np.sort(data["objid"])
            keys = np.insert(keys, np.searchsorted(keys, new), new)
        replaced = self.pages_of(a, b)
        snapshot = StoreSnapshot(self._around(a, b, made), self.dtype, ids, sizes, keys, run.nbytes)
        return snapshot, touched, replaced

    def pages_of(self, a, b):
        """The pool keys of the pages trixels ``[a, b)`` lie in, in sweep
        order."""
        pages = []
        while a < b:
            r, j = self.locate(a)
            run, end = self.runs[r], min(b, self.run_first[r + 1])
            pages.extend(run.token + p for p in run.pages(j, j + end - a))
            a = end
        return pages

    def _extent(self, a, b, added):
        """The old trixel indices ``[a, b)`` a load of ``added`` rows
        into trixels ``a`` to ``b`` rewrites: ``[a, b)`` widened to whole
        pages, then so that no run it cuts leaves a piece shorter than a
        sweep step, and the new run is no shorter either (growing by
        whole trixels, into the rows after it first) unless it is the
        whole store."""
        least = -(-STEP_PAGES * PAGE_BYTES // self.dtype.itemsize)  # rows
        first, rows, offsets, n = self.run_first, self.run_rows, self.offsets, len(self.ids)

        def widened(a, b):
            if 0 < a < n:  # back to the start of trixel a's page
                r, j = self.locate(a)
                run = self.runs[r]
                a -= j - run.page_first[run.page_of[j]]
            if b < n:  # on to the end of trixel b's page if b - 1 shares it
                r, j = self.locate(b)
                run = self.runs[r]
                page = run.page_of[j]
                if run.page_first[page] < j:
                    b += run.page_first[page + 1] - j
            if a > 0:  # the run holding trixel a - 1, to row offsets[a]
                r = bisect_right(first, a - 1) - 1
                if offsets[a] - rows[r] < least:
                    a = first[r]
            if b < n:  # the run holding trixel b, from row offsets[b]
                r = bisect_right(first, b) - 1
                if rows[r + 1] - offsets[b] < least:
                    b = first[r + 1]
            return a, b

        a, b = widened(a, b)
        short = least - (offsets[b] - offsets[a] + added)
        if short > 0:
            b = int(np.searchsorted(offsets, offsets[b] + short))
            if b > n:
                b = n
                a = int(np.searchsorted(offsets, offsets[n] + added - least, "right"))
                a = max(a - 1, 0)
            a, b = widened(a, b)
        return a, b

    def _around(self, a, b, run):
        """The windows with ``run`` in place of old trixels ``[a, b)``:
        the ones before and after shared, a window the extent cuts cut
        once more."""
        if a == 0 and b == len(self.ids):
            return [run]
        first, runs = self.run_first, self.runs
        r = bisect_right(first, a) - 1
        kept = runs[:r]
        if a > first[r]:
            cut = runs[r]
            kept.append(cut.cut(cut.lo, cut.lo + a - first[r]))
        kept.append(run)
        r = bisect_right(first, b) - 1
        if r < len(runs) and b > first[r]:
            cut = runs[r]
            kept.append(cut.cut(cut.lo + b - first[r], cut.hi))
            r += 1
        kept.extend(runs[r:])
        return kept


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
    store — and invalidates the pool entries of the pages it replaced,
    one seam for both.
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

    def note_mutation(self, pages=None):
        """Record one mutating operation against this store.

        Bumps :attr:`generation` and invalidates the buffer pool's
        entries for ``pages``, the keys (run token + page) of the
        rows the mutation replaced (every page of the store when
        ``pages`` is None) — the single seam both result-cache
        invalidation and pool invalidation hang off.  A page the
        mutation kept keeps its key, so it stays resident.  Returns the
        new generation.
        """
        self.generation += 1
        self.buffer_pool.invalidate(self, pages)
        return self.generation

    def _refuse(self, repeats):
        """:class:`DuplicateKeyError` for the ``objid`` values
        ``repeats``, if any, before the store takes a snapshot."""
        if len(repeats):
            raise DuplicateKeyError.refusing(
                f"store {self.store_uid} ({self.schema.name})", repeats
            )

    @classmethod
    def from_table(cls, table, depth, buffer_pool=None):
        """Cluster a table into a store: one stable argsort, one record
        gather; refuses a table that repeats an ``objid``."""
        store = cls(table.schema, depth, buffer_pool=buffer_pool)
        if len(table):
            ids = store.container_ids_for(table)
            snapshot = StoreSnapshot.build(table.data, ids)
            if snapshot.keys is not None:
                store._refuse(repeated_keys(snapshot.keys))
            store.snapshot = snapshot
        return store

    def container_ids_for(self, table):
        """Container (trixel) ids for each row of a table."""
        return lookup_ids_from_vectors(table.positions_xyz(), self.depth)

    def append(self, table, htm_ids):
        """Add rows, ``htm_ids`` naming each one's trixel: grouped by
        trixel once and merged, each group after its trixel's rows, into
        one new run over the stretch of rows they land in
        (:meth:`StoreSnapshot.appended`).  Records the mutation — the
        pages of the rows the new run replaced are invalidated — and
        returns the touched trixel ids, sorted; no rows are no mutation.
        Rows whose ``objid`` the store holds, or that repeat one, raise
        :class:`DuplicateKeyError` and leave the store as it was."""
        htm_ids = np.asarray(htm_ids, dtype=np.int64)
        if table.data.dtype != self.snapshot.dtype or len(htm_ids) != len(table):
            raise ValueError("need rows of the store's schema, one id each")
        if len(htm_ids) and not self._lo <= htm_ids.min() <= htm_ids.max() < self._hi:
            raise ValueError(f"ids are not at container depth {self.depth}")
        if not len(htm_ids):
            return []
        snapshot = self.snapshot
        if snapshot.keys is not None:
            self._refuse(snapshot.repeats(table.data["objid"]))
        self.snapshot, touched, replaced = snapshot.appended(table.data, htm_ids)
        self.note_mutation(replaced)
        return touched.tolist()

    def rows(self, htm_ids=None):
        """``(table, row_ids)``: the rows of the given containers (every
        container by default) and each row's container id, in container
        order — for moving and shipping data, not for scanning it (a
        store of several runs copies them into one table)."""
        snapshot = self.snapshot
        runs = [run.rows for run in snapshot.runs] or [np.empty(0, dtype=snapshot.dtype)]
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
        """Sorted ids of non-empty containers."""
        return self.snapshot.ids.tolist()

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
