"""A drawn model of the store: the arena, its overflow and its pool.

Random sequences of a cluster build, chunk loads (``ChunkLoader``),
rebalances (``add_servers``) and manual sweeps — random strides,
candidate sets, a load in the middle of a lap — run against a reference
that keeps each server's containers as a dict of per-container tables in
load order and each pool as a plain LRU.  Every delivered container's
rows must equal the reference's, byte for byte and in order, and every
pool must count the hits, misses, evictions and invalidations the
reference LRU counts.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htm import RangeSet
from repro.htm.mesh import lookup_ids_from_vectors
from repro.machines.sweep import SweepScanner
from repro.query.qet import ScanNode
from repro.session import Archive
from repro.storage import BufferPool, ChunkLoader, ContainerStore, DistributedArchive

DEPTH = 3
MAX_SERVERS = 4


class _RefServer:
    """One server's store as ``{htm_id: rows}`` plus its pool as an LRU
    of ``htm_id -> nbytes`` evicted at the end of each run."""

    def __init__(self, budget):
        self.rows = {}
        self.lru = OrderedDict()
        self.budget = budget
        self.hits = self.misses = self.evictions = self.invalidations = 0

    def add(self, htm_ids, data):
        for htm_id in np.unique(htm_ids).tolist():
            group = data[htm_ids == htm_id]
            earlier = self.rows.get(htm_id)
            self.rows[htm_id] = group if earlier is None else np.concatenate([earlier, group])
            self.invalidate(htm_id)

    def take(self, htm_id):
        self.invalidate(htm_id)
        return self.rows.pop(htm_id)

    def invalidate(self, htm_id):
        if self.lru.pop(htm_id, None) is not None:
            self.invalidations += 1

    def read_run(self, htm_ids, itemsize):
        """Whether each container of one sweep step came from the pool."""
        flags = []
        for htm_id in htm_ids:
            flags.append(htm_id in self.lru)
            if flags[-1]:
                self.lru.move_to_end(htm_id)
                self.hits += 1
            else:
                self.misses += 1
                self.lru[htm_id] = len(self.rows[htm_id]) * itemsize
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
        table = self.rows_from(data.draw(st.integers(0, 2**32 - 1)), 150)
        self.archive = DistributedArchive.from_table(table, depth=DEPTH, n_servers=2)
        self.ref = []
        self._new_servers()
        ids = _ids(table)
        owners = self.archive.partition_map.server_for_array(ids)
        for server, ref in zip(self.archive.servers, self.ref):
            ref.add(ids[owners == server.server_id], table.data[owners == server.server_id])

    def rows_from(self, seed, n):
        picks = np.random.default_rng(seed).choice(len(self.photo), size=n, replace=False)
        return self.photo.take(np.sort(picks))

    def _new_servers(self):
        for server in self.archive.servers[len(self.ref):]:
            server.store.buffer_pool = BufferPool(byte_budget=self.budget)
            self.ref.append(_RefServer(self.budget))

    def server(self):
        k = self.data.draw(st.integers(0, len(self.ref) - 1), label="server")
        return self.archive.servers[k].store, self.ref[k]

    def load(self, store=None, ref=None):
        if store is None:
            store, ref = self.server()
        chunk = self.rows_from(self.data.draw(st.integers(0, 2**32 - 1)), 30)
        ChunkLoader(store).load_chunk(chunk)
        ref.add(_ids(chunk), chunk.data)

    def rebalance(self):
        if len(self.ref) == MAX_SERVERS:
            return
        self.archive.add_servers(1)
        self._new_servers()
        owner = self.archive.partition_map.server_for
        for k, ref in enumerate(self.ref):
            for htm_id in sorted(h for h in ref.rows if owner(h) != k):
                rows = ref.take(htm_id)
                self.ref[owner(htm_id)].add(np.full(len(rows), htm_id), rows)

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
            run = [h for h in step.htm_ids if h in step_delivered]
            assert ref.read_run(run, self.itemsize) == [step_delivered[h] for h in run]
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
        assert all(np.shares_memory(m.data, store.snapshot.arena) for m in morsels)
        assert sum(s.rows_copied for s in stats.values()) == 0

    def test_overflow_rows_are_gathered_and_counted(self, photo):
        store = ContainerStore.from_table(photo, depth=5)
        ChunkLoader(store).load_chunk(photo.take(np.arange(0, len(photo), 7)))
        with Archive.connect(stores={"photo": store}) as session:
            cursor = session.execute("SELECT objid FROM photo")
            got = cursor.to_table()
            copied = sum(s.rows_copied for s in cursor.node_stats().values())
        assert len(got) == store.total_objects()
        assert 0 < copied <= len(got)
