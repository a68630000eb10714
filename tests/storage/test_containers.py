"""Tests for repro.storage.containers.

A store places data; rows leave it through a session's subscription to
the store's shared sweep and no other way, so what a spatial query does
to a store — exact answers, the three-way container classification, the
work the index saves, one region test per delivered row — is checked on
that path.
"""

import numpy as np
import pytest

from repro.catalog.schema import PHOTO_SCHEMA
from repro.catalog.table import ObjectTable
from repro.geometry.region import Region
from repro.geometry.shapes import (
    circle_region,
    latitude_band,
    polygon_region,
    rect_region,
)
from repro.htm.cover import cover_region
from repro.htm.mesh import depth_id_bounds, lookup_ids_from_vectors
from repro.query.qet import ScanNode
from repro.session import Archive
import repro.storage.containers as containers_module
from repro.storage.containers import ContainerStore

TRIANGLE = [(0.0, 0.0), (10.0, 0.0), (5.0, 8.0)]


def rows_by_objid(table):
    return np.sort(table.data, order="objid")


class TestClustering:
    def test_every_object_stored_once(self, photo, photo_store):
        assert photo_store.total_objects() == len(photo)
        assert photo_store.total_bytes() == photo.nbytes()

    def test_containers_hold_their_trixel(self, photo, photo_store):
        # Each container's rows must map back to its trixel id.
        for htm_id in photo_store.occupied_ids()[:40]:
            table, _row_ids = photo_store.rows([htm_id])
            ids = lookup_ids_from_vectors(table.positions_xyz(), photo_store.depth)
            assert len(table) and bool((ids == htm_id).all())

    def test_ids_at_container_depth(self, photo_store):
        lo, hi = depth_id_bounds(photo_store.depth)
        for htm_id in photo_store.occupied_ids():
            assert lo <= htm_id < hi

    def test_the_arena_is_sorted_and_indexed(self, photo, photo_store):
        snapshot = photo_store.snapshot
        (run,) = snapshot.runs  # a build is one run
        arena = run.rows
        row_ids = lookup_ids_from_vectors(
            np.stack([arena[c] for c in ("cx", "cy", "cz")], axis=-1),
            photo_store.depth,
        )
        assert (np.diff(row_ids) >= 0).all()
        np.testing.assert_array_equal(
            np.repeat(snapshot.ids, np.diff(snapshot.offsets)), row_ids
        )
        assert not arena.flags.writeable

    def test_append_to_an_empty_store(self):
        store = ContainerStore(PHOTO_SCHEMA, 5)
        lo, _hi = depth_id_bounds(5)
        rows = ObjectTable(PHOTO_SCHEMA, np.zeros(2, PHOTO_SCHEMA.numpy_dtype()))
        rows.data["objid"] = [1, 2]
        assert store.append(rows, [lo, lo]) == [lo]
        assert store.occupied_ids() == [lo] and store.total_objects() == 2
        assert store.generation == 1

    def test_append_validates_depth(self):
        store = ContainerStore(PHOTO_SCHEMA, 5)
        rows = ObjectTable(PHOTO_SCHEMA, np.zeros(1, PHOTO_SCHEMA.numpy_dtype()))
        with pytest.raises(ValueError):
            store.append(rows, [8])  # a depth-0 id

    def test_empty_table(self):
        store = ContainerStore.from_table(ObjectTable(PHOTO_SCHEMA), 5)
        assert len(store) == 0
        assert store.total_objects() == 0


def _store_with_appends(photo):
    """A depth-3 store of 80 rows, then 2 rows appended to its second
    container and 3 to a container it lacked; and the appended id."""
    store = ContainerStore.from_table(photo.take(np.arange(80)), depth=3)
    ids = store.occupied_ids()
    added = next(i for i in range(ids[0], ids[-1]) if i not in ids)
    store.append(photo.take(np.arange(80, 85)), [ids[1]] * 2 + [added] * 3)
    return store, added


class TestMerge:
    def test_an_append_merges_into_a_new_sorted_arena(self, photo):
        store = ContainerStore.from_table(photo.take(np.arange(80)), depth=3)
        before = store.snapshot
        ids = store.occupied_ids()
        added = next(i for i in range(ids[0], ids[-1]) if i not in ids)
        row_ids = [ids[1]] * 2 + [added] * 3
        store.append(photo.take(np.arange(80, 85)), row_ids)
        snapshot = store.snapshot
        # A store smaller than a sweep step is one run, rewritten whole.
        (arena,), (held,) = [r.rows for r in snapshot.runs], [r.rows for r in before.runs]
        # The held snapshot is untouched; the new one is the arena a
        # fresh build of the same rows in load order makes.
        assert not np.shares_memory(arena, held) and len(held) == 80
        fresh = containers_module.StoreSnapshot.build(
            np.concatenate([held, photo.data[80:85]]),
            np.concatenate([before.ids.repeat(before.sizes), row_ids]),
        )
        assert arena.tobytes() == fresh.runs[0].rows.tobytes()
        np.testing.assert_array_equal(snapshot.ids, fresh.ids)
        np.testing.assert_array_equal(snapshot.offsets, fresh.offsets)
        assert not arena.flags.writeable

    def test_each_group_follows_its_containers_rows(self, photo):
        store, added = _store_with_appends(photo)
        second = [i for i in store.occupied_ids() if i != added][1]
        table, _row_ids = store.rows([second])
        np.testing.assert_array_equal(table.data[-2:], photo.data[80:82])
        table, _row_ids = store.rows([added])
        np.testing.assert_array_equal(table.data, photo.data[82:85])


def n_pages(store):
    """How many pages the store's arena has: the sweep's and pool's unit."""
    return len(store.snapshot.pages())


def pages_of(store, ids):
    """The pool keys of the pages holding the trixels ``ids``."""
    snapshot = store.snapshot
    return {
        page
        for k in np.searchsorted(snapshot.ids, ids).tolist()
        for page in snapshot.pages_of(k, k + 1)
    }


def _in(photo, region):
    return region.contains(photo.positions_xyz())


def _mag_r(photo):
    return np.asarray(photo["mag_r"])


class TestPages:
    """A page is a fixed-byte slice of a run: a trixel lies in the page
    its rows start in, and the pool forgets the pages a merge replaced
    and keeps the rest, whose keys the next snapshot shares."""

    @pytest.fixture(autouse=True)
    def ten_rows(self, monkeypatch, photo):
        monkeypatch.setattr(containers_module, "PAGE_BYTES", 10 * photo.data.dtype.itemsize)

    def test_a_trixel_lies_in_the_page_its_arena_rows_start_in(self, photo):
        store, added = _store_with_appends(photo)
        snapshot = store.snapshot
        (run,) = snapshot.runs  # a store smaller than a step is one run
        page_of, first, before = run.page_of, run.page_first, run.before
        starts = (snapshot.offsets[:-1] // 10).tolist()
        assert page_of == [sorted(set(starts)).index(s) for s in starts]
        assert first == [page_of.index(p) for p in range(page_of[-1] + 1)] + [len(page_of)]
        assert before[-1] == store.total_bytes()
        # The added trixel holds its rows in the arena, at its sorted place.
        k = snapshot.ids.tolist().index(added)
        assert snapshot.offsets[k + 1] - snapshot.offsets[k] == 3

    def test_an_append_forgets_only_the_pages_it_replaced(self, photo):
        # 4 000 rows over ~240 pages, so a step (32 pages) is a fraction
        # of the store and the load's new run leaves both ends of it.
        store = ContainerStore.from_table(photo.take(np.arange(4000)), depth=3)
        list(store.sweeper().subscribe())
        pool = store.buffer_pool
        resident = pool.resident_containers()
        assert resident == n_pages(store) > 4 * containers_module.STEP_PAGES
        before = [page for page, _nbytes in store.snapshot.pages()]
        ids = store.occupied_ids()
        middle = ids[len(ids) // 2]
        store.append(photo.take(np.arange(4000, 4002)), [middle, middle])
        after = {page for page, _nbytes in store.snapshot.pages()}
        replaced = [page for page in before if page not in after]
        # The pages of the rows the new run took over left the pool; the
        # first and the last page, far from the load, stayed.
        assert 0 < len(replaced) <= containers_module.STEP_PAGES + 2
        assert before[0] in after and before[-1] in after
        assert pool.stats.invalidations == len(replaced)
        assert pool.resident_containers() == resident - len(replaced)
        # A remove rebuilds the store as one run, so every page goes.
        store.remove([ids[1]])
        assert pool.resident_containers() == 0
        assert pool.stats.invalidations == resident

    def test_an_empty_append_is_not_a_mutation(self, photo):
        store = ContainerStore.from_table(photo.take(np.arange(80)), depth=3)
        list(store.sweeper().subscribe())
        snapshot, pool = store.snapshot, store.buffer_pool
        resident = pool.resident_containers()
        assert store.append(photo.take(np.arange(0)), []) == []
        # No cached result over the store goes stale, no page leaves.
        assert store.generation == 0 and store.snapshot is snapshot
        assert pool.resident_containers() == resident > 0
        assert pool.stats.invalidations == 0


class TestQuerying:
    @pytest.mark.parametrize(
        "where, expected_mask",
        [
            ("CIRCLE(40, 30, 4)", lambda p: _in(p, circle_region(40.0, 30.0, 4.0))),
            (
                "CIRCLE(200, -50, 10)",
                lambda p: _in(p, circle_region(200.0, -50.0, 10.0)),
            ),
            ("LATBAND(-5, 5)", lambda p: _in(p, latitude_band(-5.0, 5.0))),
            # straddles the RA seam octants
            ("CIRCLE(0.5, 0.5, 8)", lambda p: _in(p, circle_region(0.5, 0.5, 8.0))),
            (
                "RECT(30, 50, 20, 40)",
                lambda p: _in(p, rect_region(30.0, 50.0, 20.0, 40.0)),
            ),
            ("POLYGON(0, 0, 10, 0, 5, 8)", lambda p: _in(p, polygon_region(TRIANGLE))),
            # Shapes whose plan region only bounds the WHERE: a union of
            # two cuts, an intersection, and a NOT the region ignores.
            (
                "(CIRCLE(40, 30, 8) AND mag_r < 20) "
                "OR (CIRCLE(200, -50, 10) AND mag_r >= 19)",
                lambda p: (_in(p, circle_region(40.0, 30.0, 8.0)) & (_mag_r(p) < 20))
                | (_in(p, circle_region(200.0, -50.0, 10.0)) & (_mag_r(p) >= 19)),
            ),
            (
                "CIRCLE(40, 30, 8) AND CIRCLE(45, 33, 8)",
                lambda p: _in(p, circle_region(40.0, 30.0, 8.0))
                & _in(p, circle_region(45.0, 33.0, 8.0)),
            ),
            (
                "NOT CIRCLE(40, 30, 8) AND mag_r < 20",
                lambda p: ~_in(p, circle_region(40.0, 30.0, 8.0)) & (_mag_r(p) < 20),
            ),
        ],
    )
    def test_query_matches_brute_force(self, photo, session, where, expected_mask):
        result = session.query_table(f"SELECT * FROM photo WHERE {where}")
        expected = photo.select(expected_mask(photo))
        assert len(expected) > 0
        np.testing.assert_array_equal(rows_by_objid(result), rows_by_objid(expected))

    def test_query_with_attribute_predicate(self, photo, session):
        result = session.query_table(
            "SELECT * FROM photo WHERE CIRCLE(40, 30, 8) AND mag_r < 20"
        )
        mask = circle_region(40.0, 30.0, 8.0).contains(photo.positions_xyz()) & (
            np.asarray(photo["mag_r"]) < 20.0
        )
        np.testing.assert_array_equal(
            rows_by_objid(result), rows_by_objid(photo.select(mask))
        )

    def test_each_delivered_row_is_region_tested_once(
        self, photo_store, session, monkeypatch
    ):
        # The paper's three-way classification, observed on the live
        # path.  The cover decides trixels: inside and bisected ones
        # are delivered, the rest skipped.  The compiled WHERE decides
        # rows: its CIRCLE term is the one Region instance asked about
        # rows, and it sees every delivered row exactly once.
        tested = {}
        contains = Region.contains

        def counting(region, xyz):
            tested[id(region)] = tested.get(id(region), 0) + len(xyz)
            return contains(region, xyz)

        delivered_ids = []
        consume = ScanNode._consume

        def recording(node, subscription):
            def deliveries():
                for run in subscription:
                    delivered_ids.extend(h for h, _rows, _hit in run.containers())
                    yield run

            return consume(node, deliveries())

        monkeypatch.setattr(Region, "contains", counting)
        monkeypatch.setattr(ScanNode, "_consume", recording)
        cursor = session.execute("SELECT * FROM photo WHERE CIRCLE(40, 30, 12)")
        result = cursor.to_table()
        monkeypatch.undo()

        coverage = cover_region(circle_region(40.0, 30.0, 12.0), photo_store.depth)
        rows = {"inside": 0, "partial": 0}
        containers = {"inside": set(), "partial": set()}
        for htm_id, size in photo_store.container_sizes().items():
            for kind in ("inside", "partial"):
                if getattr(coverage, kind).contains(htm_id):
                    rows[kind] += size
                    containers[kind].add(htm_id)
        assert rows["inside"] > 0 and rows["partial"] > 0
        assert list(tested.values()) == [rows["inside"] + rows["partial"]]
        assert rows["inside"] <= len(result) < rows["inside"] + rows["partial"]
        # Inside + bisected containers were delivered once each, the
        # rest skipped.
        assert sorted(delivered_ids) == sorted(
            containers["inside"] | containers["partial"]
        )
        # The pool and the counters account the pages holding them.
        report = cursor.io_report()
        delivered = report["containers_read"] + report["containers_from_pool"]
        assert delivered == len(pages_of(photo_store, delivered_ids))
        assert delivered + report["containers_skipped"] == n_pages(photo_store)

    def test_index_rejects_most_containers(self, photo_store, session):
        cursor = session.execute("SELECT * FROM photo WHERE CIRCLE(40, 30, 6)")
        cursor.to_table()
        assert cursor.io_report()["containers_skipped"] > 0.8 * n_pages(photo_store)

    def test_full_scan_reads_every_byte_once(self, photo):
        store = ContainerStore.from_table(photo, 5)
        with Archive.connect(stores={"photo": store}) as session:
            cursor = session.execute("SELECT * FROM photo")
            result = cursor.to_table()
        assert len(result) == len(photo)
        assert cursor.io_report()["containers_read"] == n_pages(store)
        assert store.buffer_pool.stats.bytes_read == photo.nbytes()

    def test_full_scan_with_predicate(self, photo, session):
        result = session.query_table("SELECT * FROM photo WHERE objtype = QUASAR")
        assert len(result) == int((photo["objtype"] == 3).sum())

    def test_query_empty_region_returns_empty(self, photo_store, session):
        # Two disjoint circles: the cover is empty, nothing is delivered.
        cursor = session.execute(
            "SELECT * FROM photo WHERE CIRCLE(10, 10, 1) AND CIRCLE(200, -50, 1)"
        )
        result = cursor.to_table()
        assert len(result) == 0
        assert result.schema.field_names() == photo_store.schema.field_names()
        report = cursor.io_report()
        assert report["containers_read"] + report["containers_from_pool"] == 0
        assert report["containers_skipped"] == n_pages(photo_store)
