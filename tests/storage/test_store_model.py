"""A drawn model of the store: its runs, their pages and its pool.

Random sequences of a cluster build, chunk loads (``ChunkLoader``),
rebalances (``add_servers``) and manual sweeps — random strides,
candidate sets, a load in the middle of a lap, and a drawn page size —
run against a reference that keeps each server's trixels as a dict of
per-trixel tables in load order and each pool as a plain LRU of pages.
The reference follows the store's runs after each mutation: every
window of a run must hold whole pages of it, paged by the bytes its
rows start at, and a page a mutation kept (its key, the run's token
plus its page number, still in the store) must hold the trixels and rows it held, while
the pool forgets exactly the resident pages whose keys left.  Every
delivered trixel's rows must equal the reference's, byte for byte and
in order, every step must read the pages the reference places the
delivered trixels in, and every pool must count the hits, misses,
evictions and invalidations the reference LRU counts.
"""

from collections import OrderedDict
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.shapes import circle_region
from repro.htm import RangeSet
from repro.htm.mesh import lookup_ids_from_vectors
from repro.machines.sweep import SweepScanner
from repro.query.qet import ScanNode
from repro.session import Archive
from repro.storage import BufferPool, ChunkLoader, ContainerStore, DistributedArchive
import repro.storage.containers as containers_module

DEPTH = 3
MAX_SERVERS = 4


class _RefServer:
    """One server's store as ``{htm_id: rows}`` in id order, the page
    each trixel lay in when the store was last followed (:meth:`follow`),
    and its pool as an LRU of ``page -> nbytes`` evicted at the end of
    each run."""

    def __init__(self, budget, itemsize):
        self.rows = {}
        self.page_of = {}
        self.lru = OrderedDict()
        self.budget, self.itemsize = budget, itemsize
        self.hits = self.misses = self.evictions = self.invalidations = 0

    def add(self, htm_ids, data):
        """One append: each trixel's new rows after its own."""
        for htm_id in np.unique(htm_ids).tolist():
            group = data[htm_ids == htm_id]
            earlier = self.rows.get(htm_id)
            self.rows[htm_id] = group if earlier is None else np.concatenate([earlier, group])

    def take(self, htm_ids):
        """One remove: the store is rebuilt and every page invalidated."""
        taken = {h: self.rows.pop(h) for h in htm_ids}
        self.invalidations += len(self.lru)
        self.lru.clear()
        return taken

    def follow(self, store, held):
        """Take the store's pages after a mutation, ``held`` the rows of
        each trixel before it: each window holds whole pages of its run,
        a trixel lies in the page its rows start in within the run, a
        kept page holds what it held, and the pool forgets the resident
        pages whose keys left."""
        before = self.contents(held)
        page_of = {}
        for run in store.snapshot.runs:
            starts = np.asarray(run.offset_list[:-1]) * self.itemsize
            raw = (starts // containers_module.PAGE_BYTES).tolist()
            dense = {r: k for k, r in enumerate(sorted(set(raw)))}
            assert run.page_of == [dense[r] for r in raw]
            assert run.page_first[run.page_of[run.lo]] == run.lo
            assert run.page_first[run.page_of[run.hi - 1] + 1] == run.hi
            for k in range(run.lo, run.hi):
                page_of[run.id_list[k]] = run.token + run.page_of[k]
        assert sorted(page_of) == sorted(self.rows)
        self.page_of = page_of
        after = self.contents(self.rows)
        for page in before.keys() & after.keys():
            assert before[page] == after[page], page
        for page in [p for p in self.lru if p not in after]:
            del self.lru[page]
            self.invalidations += 1

    def contents(self, rows):
        """``{page: [(htm_id, bytes)]}`` of the pages last followed."""
        pages = {}
        for htm_id, page in self.page_of.items():
            pages.setdefault(page, []).append((htm_id, rows[htm_id].tobytes()))
        return {page: sorted(held) for page, held in pages.items()}

    def pages(self):
        """``{htm_id: page}``: the pool key of the page each trixel lies
        in."""
        return self.page_of

    def read_run(self, pages):
        """Whether each page of one sweep step came from the pool."""
        page_of = self.pages()
        flags = []
        for page in pages:
            flags.append(page in self.lru)
            if flags[-1]:
                self.lru.move_to_end(page)
                self.hits += 1
            else:
                self.misses += 1
                self.lru[page] = self.itemsize * sum(
                    len(rows) for h, rows in self.rows.items() if page_of[h] == page
                )
        while self.budget is not None and sum(self.lru.values()) > self.budget:
            self.lru.popitem(last=False)
            self.evictions += 1
        return flags


def _ids(table):
    return lookup_ids_from_vectors(table.positions_xyz(), DEPTH)


class _Model:
    def __init__(self, photo, data):
        self.photo, self.data = photo, data
        self.itemsize = photo.data.dtype.itemsize
        self.budget = data.draw(st.sampled_from([None, 0, 4 * self.itemsize, 40 * self.itemsize]))
        self.loaded = 0
        table = self.rows_from(data.draw(st.integers(0, 2**32 - 1)), 150)
        self.archive = DistributedArchive.from_table(table, depth=DEPTH, n_servers=2)
        self.ref = []
        self._new_servers()
        ids = _ids(table)
        owners = self.archive.partition_map.server_for_array(ids)
        held = self.held()
        for server, ref in zip(self.archive.servers, self.ref):
            ref.add(ids[owners == server.server_id], table.data[owners == server.server_id])
        self.follow(held)

    def held(self):
        """Each server's rows, before a mutation."""
        return [dict(ref.rows) for ref in self.ref]

    def follow(self, held):
        """Every reference follows its store's pages after a mutation."""
        for server, ref, rows in zip(self.archive.servers, self.ref, held):
            ref.follow(server.store, rows)

    def rows_from(self, seed, n):
        """``n`` drawn rows as new objects: objid is a key, so a row
        drawn twice is loaded under a fresh objid."""
        picks = np.random.default_rng(seed).choice(len(self.photo), size=n, replace=False)
        table = self.photo.take(np.sort(picks))
        table.data["objid"] = np.arange(self.loaded, self.loaded + n)
        self.loaded += n
        return table

    def _new_servers(self):
        for server in self.archive.servers[len(self.ref):]:
            server.store.buffer_pool = BufferPool(byte_budget=self.budget)
            self.ref.append(_RefServer(self.budget, self.itemsize))

    def server(self):
        k = self.data.draw(st.integers(0, len(self.ref) - 1), label="server")
        return self.archive.servers[k].store, self.ref[k]

    def load(self, store=None, ref=None):
        if store is None:
            store, ref = self.server()
        chunk = self.rows_from(self.data.draw(st.integers(0, 2**32 - 1)), 30)
        held = dict(ref.rows)
        ChunkLoader(store).load_chunk(chunk)
        ref.add(_ids(chunk), chunk.data)
        ref.follow(store, held)

    def rebalance(self):
        if len(self.ref) == MAX_SERVERS:
            return
        held = self.held()
        self.archive.add_servers(1)
        self._new_servers()
        owner = self.archive.partition_map.server_for
        # Server by server: one remove of what leaves, then one append
        # per owner receiving it.
        for k, ref in enumerate(self.ref):
            leaving = sorted(h for h in ref.rows if owner(h) != k)
            if not leaving:
                continue
            taken = ref.take(leaving)
            for j, target in enumerate(self.ref):
                mine = [h for h in leaving if owner(h) == j]
                if mine:
                    target.add(
                        np.concatenate([np.full(len(taken[h]), h) for h in mine]),
                        np.concatenate([taken[h] for h in mine]),
                    )
        self.follow(held + [{}] * (len(self.ref) - len(held)))

    def candidates(self, ref):
        kind = self.data.draw(st.sampled_from(["none", "empty", "ranges"]))
        if kind == "none":
            return None
        if kind == "empty":
            return RangeSet()
        named = self.data.draw(st.lists(st.sampled_from(sorted(ref.rows)), max_size=6))
        return RangeSet([(i, i + self.data.draw(st.integers(0, 3))) for i in named])

    def sweep(self):
        store, ref = self.server()
        if not ref.rows:
            return
        scanner = SweepScanner(store)
        stride = self.data.draw(st.sampled_from([1, 3, 32]), label="stride")
        load_at = self.data.draw(st.one_of(st.none(), st.integers(0, 20)), label="load_at")
        step_delivered = {}
        subscriptions = []
        for _ in range(self.data.draw(st.integers(1, 2), label="subscribers")):
            wanted = self.candidates(ref)
            got = []

            def sink(run, got=got):
                for htm_id, rows, from_pool in run.containers():
                    assert rows.tobytes() == ref.rows[htm_id].tobytes(), htm_id
                    step_delivered[htm_id] = from_pool
                    got.append(htm_id)

            expected = [h for h in sorted(ref.rows) if wanted is None or wanted.contains(h)]
            subscriptions.append((scanner.attach(candidates=wanted, sink=sink), got, expected))
        steps = 0
        while True:
            if steps == load_at:
                self.load(store, ref)
            step_delivered.clear()
            step = scanner.step(stride)
            if step is None:
                break
            # One pool read per page holding a delivered trixel, and every
            # trixel on a page shares its page's flag.
            page_of = ref.pages()
            flags = {page_of[h]: hit for h, hit in step_delivered.items()}
            assert step.pages == list({page_of[h]: h for h in sorted(step_delivered)})
            for h, hit in step_delivered.items():
                assert flags[page_of[h]] == hit
            assert ref.read_run(step.pages) == [flags[p] for p in step.pages]
            steps += 1
        for subscription, got, expected in subscriptions:
            assert subscription.completed()
            assert len(got) == len(set(got))
            if load_at is None or load_at >= steps:
                assert sorted(got) == expected

    def check(self):
        for server, ref in zip(self.archive.servers, self.ref):
            store = server.store
            assert store.container_sizes() == {h: len(r) for h, r in ref.rows.items()}
            table, _row_ids = store.rows()
            expected = [ref.rows[h] for h in sorted(ref.rows)]
            if expected:
                assert table.data.tobytes() == np.concatenate(expected).tobytes()
            stats = store.buffer_pool.stats
            assert (stats.hits, stats.misses, stats.evictions, stats.invalidations) == (
                ref.hits,
                ref.misses,
                ref.evictions,
                ref.invalidations,
            )


class TestStoreAgainstModel:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_delivery_and_every_pool_count_equal_the_model(self, photo, data):
        row = photo.data.dtype.itemsize
        # One row a page (a page per trixel), three rows, the default, and
        # pages larger than any store.
        page_bytes = data.draw(
            st.sampled_from([row, 3 * row, containers_module.PAGE_BYTES, 1 << 30]),
            label="page_bytes",
        )
        with mock.patch.object(containers_module, "PAGE_BYTES", page_bytes):
            self._run(photo, data)

    @staticmethod
    def _run(photo, data):
        model = _Model(photo, data)
        ops = data.draw(
            st.lists(st.sampled_from(["load", "rebalance", "sweep"]), max_size=8),
            label="ops",
        )
        for op in ops:
            getattr(model, op)()
            model.check()
        model.sweep()
        model.check()


def _a_runs_view(data, snapshot):
    """Whether ``data`` is a view of one of the snapshot's runs."""
    return any(np.shares_memory(data, run.data) for run in snapshot.runs)


class TestArenaViews:
    def _morsels(self, monkeypatch):
        seen = []
        build = ScanNode._morsel

        def recording(node, pieces):
            seen.append(build(node, pieces))
            return seen[-1]

        monkeypatch.setattr(ScanNode, "_morsel", recording)
        return seen

    def test_a_lone_whole_catalog_scan_copies_no_row(self, photo, monkeypatch):
        store = ContainerStore.from_table(photo, depth=5)
        morsels = self._morsels(monkeypatch)
        with Archive.connect(stores={"photo": store}, batch_rows=1024) as session:
            cursor = session.execute("SELECT objid FROM photo")
            assert len(cursor.to_table()) == len(photo)
            stats = cursor.node_stats()
        assert len(morsels) > 1
        assert all(_a_runs_view(m.data, store.snapshot) for m in morsels)
        assert sum(s.rows_copied for s in stats.values()) == 0

    def test_a_loaded_stores_whole_catalog_scan_copies_no_row(self, photo, monkeypatch):
        # Four-row pages, so a sweep step, the shortest run, is 128 rows
        # and each spatially coherent chunk leaves the store more runs.
        monkeypatch.setattr(containers_module, "PAGE_BYTES", 4 * photo.data.dtype.itemsize)
        store = ContainerStore.from_table(photo, depth=5)
        picks = np.arange(0, len(photo), 7)
        chunk = photo.take(picks[np.argsort(photo["htmid"][picks], kind="stable")])
        chunk.data["objid"] += photo["objid"].max()  # new objects
        loader = ChunkLoader(store)
        for rows in np.array_split(np.arange(len(chunk)), 4):
            loader.load_chunk(chunk.take(rows))
        assert len(store.snapshot.runs) > 2
        morsels = self._morsels(monkeypatch)
        with Archive.connect(stores={"photo": store}) as session:
            cursor = session.execute("SELECT objid FROM photo")
            got = cursor.to_table()
            copied = sum(s.rows_copied for s in cursor.node_stats().values())
        assert copied == 0
        assert all(_a_runs_view(m.data, store.snapshot) for m in morsels)
        expected = np.concatenate([photo["objid"], chunk["objid"]])
        np.testing.assert_array_equal(np.sort(got["objid"]), np.sort(expected))

    def test_a_select_star_hands_out_arena_views(self, photo):
        store = ContainerStore.from_table(photo, depth=5)
        with Archive.connect(stores={"photo": store}, batch_rows=1024) as session:
            batches = list(session.execute("SELECT * FROM photo"))
        assert sum(len(b) for b in batches) == len(photo) and len(batches) > 1
        for batch in batches:
            assert _a_runs_view(batch.data, store.snapshot)
            assert not batch.data.flags.writeable

    def test_a_region_that_drops_trixels_inside_a_run_is_gathered_and_counted(self, photo):
        store = ContainerStore.from_table(photo, depth=5)
        region = circle_region(185.0, 0.0, 20.0)
        with Archive.connect(stores={"photo": store}) as session:
            cursor = session.execute("SELECT objid FROM photo WHERE CIRCLE(185, 0, 20)")
            got = cursor.to_table()
            copied = sum(s.rows_copied for s in cursor.node_stats().values())
        # The cover's gaps cut a run's rows into several arena slices, so
        # its morsels are gathered, and counted.
        assert 0 < copied < len(photo)
        inside = photo["objid"][region.contains(photo.positions_xyz())]
        np.testing.assert_array_equal(np.sort(got["objid"]), np.sort(inside))
