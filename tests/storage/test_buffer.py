"""Tests for repro.storage.buffer: the container buffer pool."""

import numpy as np
import pytest

from repro.session import Archive
from repro.storage import BufferPool, ContainerStore


@pytest.fixture()
def store(photo):
    """A fresh store (own pool) over the shared catalog."""
    return ContainerStore.from_table(photo, depth=2)


def nbytes(store, htm_id):
    return store.rows([htm_id])[0].nbytes()


def read(store, htm_id):
    """One container through the store's pool, as the sweep reads it."""
    table, _row_ids = store.rows([htm_id])
    (from_pool,) = store.buffer_pool.fetch_many(store, [(htm_id, table.nbytes())])
    return table, from_pool


def read_page(store, htm_id):
    """One trixel's rows through the pool under its page's key, as the
    sweep reads them — the key a mutation of the trixel invalidates."""
    table, _row_ids = store.rows([htm_id])
    snapshot = store.snapshot
    k = int(np.searchsorted(snapshot.ids, htm_id))
    (page,) = snapshot.pages_of(k, k + 1)
    (from_pool,) = store.buffer_pool.fetch_many(store, [(page, table.nbytes())])
    return table, from_pool


def n_pages(store):
    """How many pages the store's arena has: the pool's unit."""
    return len(store.snapshot.pages())


def pairs(store, ids):
    """``fetch_many``'s input: ``(htm_id, nbytes)`` per container."""
    return [(i, nbytes(store, i)) for i in ids]


class TestReadPath:
    def test_first_read_misses_then_hits(self, store):
        pool = store.buffer_pool
        htm_id = store.occupied_ids()[0]
        table, from_pool = read(store, htm_id)
        assert from_pool is False
        assert pool.stats.misses == 1
        _again, from_pool = read(store, htm_id)
        assert from_pool is True
        assert pool.resident_containers() == 1  # a byte count, not the rows
        assert pool.stats.hits == 1
        assert pool.stats.bytes_read == nbytes(store, htm_id)
        assert pool.stats.bytes_from_pool == nbytes(store, htm_id)

    def test_hit_rate(self, store):
        ids = store.occupied_ids()[:4]
        for htm_id in ids:
            read(store, htm_id)
        for htm_id in ids:
            read(store, htm_id)
        assert store.buffer_pool.stats.hit_rate() == pytest.approx(0.5)

    def test_repeated_query_populates_and_reuses_pool(self, store):
        query = "SELECT * FROM photo WHERE CIRCLE(40, 30, 10)"
        with Archive.connect(stores={"photo": store}) as session:
            first = session.execute(query)
            first.to_table()
            second = session.execute(query)
            second.to_table()
        touched = first.io_report()["containers_read"]
        assert 0 < touched < n_pages(store)
        assert first.io_report()["containers_from_pool"] == 0
        assert second.io_report()["containers_from_pool"] == touched
        assert second.io_report()["containers_read"] == 0

    def test_second_full_scan_is_all_hits(self, store):
        with Archive.connect(stores={"photo": store}) as session:
            session.query_table("SELECT * FROM photo")
            cursor = session.execute("SELECT * FROM photo")
            cursor.to_table()
        assert cursor.io_report()["containers_from_pool"] == n_pages(store)
        assert store.buffer_pool.stats.misses == n_pages(store)


class TestLRUBudget:
    def test_eviction_under_byte_budget(self, photo, store):
        ids = store.occupied_ids()
        a, b = ids[0], ids[1]
        pool = BufferPool(byte_budget=max(nbytes(store, a), nbytes(store, b)))
        tight = ContainerStore.from_table(photo, store.depth, buffer_pool=pool)
        read(tight, a)
        read(tight, b)  # evicts a
        assert pool.stats.evictions >= 1
        _table, from_pool = read(tight, a)
        assert from_pool is False  # a was evicted
        assert pool.resident_bytes() <= pool.byte_budget

    def test_lru_order_keeps_recently_used(self, photo, store):
        ids = store.occupied_ids()
        a, b, c = ids[0], ids[1], ids[2]
        pool = BufferPool(byte_budget=nbytes(store, a) + nbytes(store, b))
        tight = ContainerStore.from_table(photo, store.depth, buffer_pool=pool)
        read(tight, a)
        read(tight, b)
        read(tight, a)  # touch a: b is now LRU
        read(tight, c)  # evicts b (maybe more, budget is bytes)
        _table, from_pool = read(tight, b)
        assert from_pool is False

    def test_unbounded_pool_never_evicts(self, store):
        for htm_id in store.occupied_ids():
            read(store, htm_id)
        assert store.buffer_pool.stats.evictions == 0
        assert store.buffer_pool.resident_containers() == len(store)

    def test_zero_budget_rejects_residency_but_serves_reads(self, photo, store):
        pool = BufferPool(byte_budget=0)
        bare = ContainerStore.from_table(photo, store.depth, buffer_pool=pool)
        htm_id = store.occupied_ids()[0]
        table, from_pool = read(bare, htm_id)
        assert from_pool is False
        assert len(table) == len(store.rows([htm_id])[0])
        _table, from_pool = read(bare, htm_id)
        assert from_pool is False  # nothing can stay resident


class TestInvalidation:
    def test_mutated_container_is_never_served_stale(self, photo, store):
        htm_id = store.occupied_ids()[0]
        table, _ = read_page(store, htm_id)
        rows_before = len(table)
        # Every mutation is an append, which records itself.  The added
        # rows are new objects (objid is a key) at the page's positions.
        added = min(3, rows_before)
        rows = table.take(np.arange(added))
        rows.data["objid"] += photo["objid"].max()
        store.append(rows, [htm_id] * added)
        fresh, from_pool = read_page(store, htm_id)
        assert from_pool is False
        assert store.buffer_pool.stats.invalidations == 1
        assert len(fresh) == rows_before + min(3, rows_before)

    def test_explicit_invalidate(self, store):
        htm_id = store.occupied_ids()[0]
        read(store, htm_id)
        store.buffer_pool.invalidate(store, [htm_id])
        _table, from_pool = read(store, htm_id)
        assert from_pool is False

    def test_invalidate_whole_store(self, store):
        for htm_id in store.occupied_ids()[:5]:
            read(store, htm_id)
        store.buffer_pool.invalidate(store)
        assert store.buffer_pool.resident_containers() == 0


class TestSharedPool:
    def test_two_stores_can_share_one_pool_without_collisions(self, photo, tags):
        pool = BufferPool()
        photo_store = ContainerStore.from_table(photo, depth=2, buffer_pool=pool)
        tag_store = ContainerStore.from_table(tags, depth=2, buffer_pool=pool)
        # Same htm ids exist in both stores; reads must not cross.
        shared_ids = set(photo_store.occupied_ids()) & set(tag_store.occupied_ids())
        assert shared_ids
        htm_id = sorted(shared_ids)[0]
        photo_table, _ = read(photo_store, htm_id)
        tag_table, from_pool = read(tag_store, htm_id)
        assert from_pool is False  # distinct key despite equal htm_id
        assert photo_table is not tag_table

    def test_from_table_accepts_shared_pool(self, photo):
        pool = BufferPool()
        store = ContainerStore.from_table(photo, depth=2)
        other = ContainerStore(store.schema, store.depth, buffer_pool=pool)
        assert other.buffer_pool is pool


class TestFetchManyOvershoot:
    """``fetch_many`` defers eviction to end-of-run, so residency may
    transiently exceed the budget — but only *inside* the lock, by at
    most the run's own bytes, and the end-of-run eviction must restore
    the invariant before any other reader can look."""

    def _tight_store(self, photo, store, budget):
        pool = BufferPool(byte_budget=budget)
        tight = ContainerStore.from_table(photo, store.depth, buffer_pool=pool)
        return tight, pool

    def test_budget_restored_after_each_run(self, photo, store):
        ids = store.occupied_ids()
        run = pairs(store, ids)
        budget = max(n for _i, n in run)  # every run is larger than the budget
        tight, pool = self._tight_store(photo, store, budget)
        results = pool.fetch_many(tight, run)
        assert len(results) == len(ids)
        assert pool.resident_bytes() <= budget
        assert pool.stats.evictions >= len(ids) - 1

    def test_overshoot_is_recorded_and_bounded_by_run_bytes(self, photo, store):
        ids = store.occupied_ids()
        run = pairs(store, ids)
        run_bytes = sum(n for _i, n in run)
        budget = nbytes(store, ids[0])
        tight, pool = self._tight_store(photo, store, budget)
        pool.fetch_many(tight, run)
        overshoot = pool.stats.peak_overshoot_bytes
        assert overshoot > 0  # the run did exceed the budget mid-flight
        assert overshoot <= run_bytes
        assert pool.resident_bytes() <= budget

    def test_within_budget_run_never_overshoots(self, photo, store):
        run = pairs(store, store.occupied_ids()[:2])
        budget = sum(n for _i, n in run)
        tight, pool = self._tight_store(photo, store, budget)
        pool.fetch_many(tight, run)
        assert pool.stats.peak_overshoot_bytes == 0
        assert pool.stats.evictions == 0

    def test_unbounded_pool_records_no_overshoot(self, store):
        ids = store.occupied_ids()
        pool = store.buffer_pool
        pool.fetch_many(store, pairs(store, ids))
        assert pool.stats.peak_overshoot_bytes == 0
