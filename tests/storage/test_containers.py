"""Tests for repro.storage.containers.

A store places data; rows leave it through a session's subscription to
the store's shared sweep and no other way, so what a spatial query does
to a store — exact answers, the three-way container classification, the
work the index saves — is checked on that path.
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
from repro.session import Archive
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
        for htm_id in list(photo_store.containers)[:40]:
            container = photo_store.containers[htm_id]
            ids = lookup_ids_from_vectors(
                container.table.positions_xyz(), photo_store.depth
            )
            assert bool((ids == htm_id).all())

    def test_ids_at_container_depth(self, photo_store):
        lo, hi = depth_id_bounds(photo_store.depth)
        for htm_id in photo_store.containers:
            assert lo <= htm_id < hi

    def test_get_or_create(self, photo_store):
        store = ContainerStore(PHOTO_SCHEMA, 5)
        lo, _hi = depth_id_bounds(5)
        container = store.get_or_create(lo)
        assert len(container) == 0
        assert store.get_or_create(lo) is container

    def test_get_or_create_validates_depth(self):
        store = ContainerStore(PHOTO_SCHEMA, 5)
        with pytest.raises(ValueError):
            store.get_or_create(8)  # a depth-0 id

    def test_empty_table(self):
        store = ContainerStore.from_table(ObjectTable(PHOTO_SCHEMA), 5)
        assert len(store) == 0
        assert store.total_objects() == 0


class TestQuerying:
    @pytest.mark.parametrize(
        "where, region_factory",
        [
            ("CIRCLE(40, 30, 4)", lambda: circle_region(40.0, 30.0, 4.0)),
            ("CIRCLE(200, -50, 10)", lambda: circle_region(200.0, -50.0, 10.0)),
            ("LATBAND(-5, 5)", lambda: latitude_band(-5.0, 5.0)),
            # straddles the RA seam octants
            ("CIRCLE(0.5, 0.5, 8)", lambda: circle_region(0.5, 0.5, 8.0)),
            ("RECT(30, 50, 20, 40)", lambda: rect_region(30.0, 50.0, 20.0, 40.0)),
            ("POLYGON(0, 0, 10, 0, 5, 8)", lambda: polygon_region(TRIANGLE)),
        ],
    )
    def test_query_matches_brute_force(self, photo, session, where, region_factory):
        result = session.query_table(f"SELECT * FROM photo WHERE {where}")
        expected = photo.select(region_factory().contains(photo.positions_xyz()))
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

    def test_scan_point_tests_only_bisected_containers(
        self, photo_store, session, monkeypatch
    ):
        # The paper's three-way classification, observed on the live
        # path by counting the rows each Region instance is asked about.
        # The scan's own exact test (plan.region) sees the rows of the
        # bisected containers and nothing else: containers inside the
        # cover pass it wholesale, containers outside are never
        # delivered.  The compiled WHERE carries the CIRCLE term too (a
        # second Region instance) and evaluates it over every delivered
        # row — the redundancy ROADMAP item 6 records.
        tested = {}
        contains = Region.contains

        def counting(region, xyz):
            tested[id(region)] = tested.get(id(region), 0) + len(xyz)
            return contains(region, xyz)

        monkeypatch.setattr(Region, "contains", counting)
        cursor = session.execute("SELECT * FROM photo WHERE CIRCLE(40, 30, 12)")
        result = cursor.to_table()
        monkeypatch.undo()

        coverage = cover_region(circle_region(40.0, 30.0, 12.0), photo_store.depth)
        rows = {"inside": 0, "partial": 0}
        containers = {"inside": 0, "partial": 0}
        for htm_id, container in photo_store.containers.items():
            for kind in ("inside", "partial"):
                if getattr(coverage, kind).contains(htm_id):
                    rows[kind] += len(container)
                    containers[kind] += 1
        assert rows["inside"] > 0 and rows["partial"] > 0
        assert sorted(tested.values()) == [
            rows["partial"],
            rows["inside"] + rows["partial"],
        ]
        assert rows["inside"] <= len(result) < rows["inside"] + rows["partial"]
        # Accepted + bisected containers were delivered, the rest skipped.
        report = cursor.io_report()
        delivered = report["containers_read"] + report["containers_from_pool"]
        assert delivered == containers["inside"] + containers["partial"]
        assert delivered + report["containers_skipped"] == len(photo_store)

    def test_index_rejects_most_containers(self, photo_store, session):
        cursor = session.execute("SELECT * FROM photo WHERE CIRCLE(40, 30, 6)")
        cursor.to_table()
        assert cursor.io_report()["containers_skipped"] > 0.8 * len(photo_store)

    def test_full_scan_reads_every_byte_once(self, photo):
        store = ContainerStore.from_table(photo, 5)
        with Archive.connect(stores={"photo": store}) as session:
            cursor = session.execute("SELECT * FROM photo")
            result = cursor.to_table()
        assert len(result) == len(photo)
        assert cursor.io_report()["containers_read"] == len(store)
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
        assert report["containers_skipped"] == len(photo_store)
