"""Tests for repro.storage.cluster — the distributed archive."""

import numpy as np
import pytest

from repro.geometry.shapes import circle_region
from repro.session import Archive
from repro.storage.cluster import DistributedArchive


@pytest.fixture(scope="module")
def archive(request):
    photo = request.getfixturevalue("photo")
    return DistributedArchive.from_table(photo, depth=5, n_servers=6)


@pytest.fixture()
def session(archive):
    with Archive.connect(archive=archive) as session:
        yield session


def rows_by_objid(table):
    return np.sort(table.data, order="objid")


class TestDistribution:
    def test_all_objects_placed(self, photo, archive):
        assert archive.total_objects() == len(photo)

    def test_loads_balanced(self, archive):
        loads = archive.server_loads()
        mean = sum(loads.values()) / len(loads)
        assert max(loads.values()) < 1.5 * mean

    def test_containers_on_their_owner(self, archive):
        for server in archive.servers:
            for htm_id in server.store.occupied_ids():
                assert archive.partition_map.server_for(htm_id) == server.server_id

    def test_needs_servers(self, photo):
        with pytest.raises(ValueError):
            DistributedArchive.from_table(photo, depth=5, n_servers=0)


class TestDistributedQueries:
    """A session over the archive is how it is queried; the fan-out
    accounting is the job's :class:`ShardFanoutReport`."""

    def test_query_matches_brute_force(self, photo, session):
        result = session.query_table("SELECT * FROM photo WHERE CIRCLE(40, 30, 5)")
        mask = circle_region(40.0, 30.0, 5.0).contains(photo.positions_xyz())
        np.testing.assert_array_equal(
            rows_by_objid(result), rows_by_objid(photo.select(mask))
        )

    def test_small_query_touches_few_servers(self, session):
        job = session.submit("SELECT * FROM photo WHERE CIRCLE(40, 30, 0.5)")
        job.cursor.to_table()
        assert job.reports[0].servers_touched <= 2

    def test_allsky_scan_touches_all_servers(self, photo, session):
        job = session.submit("SELECT * FROM photo")
        assert len(job.cursor.to_table()) == len(photo)
        (report,) = job.reports
        assert report.servers_touched == report.servers_total
        # Shared-nothing parallelism: the slowest touched server sets the
        # fan-out's time, and the fan-out beats one big server.
        assert report.simulated_seconds == max(
            report.simulated_seconds_per_server.values()
        )
        assert report.parallel_speedup() > 1.0

    def test_scan_with_predicate(self, photo, session):
        result = session.query_table("SELECT * FROM photo WHERE objtype = QUASAR")
        assert len(result) == int((photo["objtype"] == 3).sum())

    def test_parallel_speedup_on_wide_queries(self, archive, session):
        # A band crossing every server: parallel time ~ single / servers.
        job = session.submit("SELECT * FROM photo WHERE LATBAND(-90, 90)")
        job.cursor.to_table()
        report = job.reports[0]
        assert report.servers_touched == report.servers_total
        assert report.parallel_speedup() > len(archive.servers) * 0.5

    def test_attribute_predicate(self, photo, session):
        result = session.query_table(
            "SELECT * FROM photo WHERE CIRCLE(40, 30, 8) AND mag_r < 19"
        )
        mask = circle_region(40.0, 30.0, 8.0).contains(photo.positions_xyz()) & (
            np.asarray(photo["mag_r"]) < 19.0
        )
        np.testing.assert_array_equal(
            rows_by_objid(result), rows_by_objid(photo.select(mask))
        )

    def test_empty_region(self, session):
        # Two disjoint circles: an empty cover prunes every server.
        job = session.submit(
            "SELECT * FROM photo WHERE CIRCLE(10, 10, 1) AND CIRCLE(200, -50, 1)"
        )
        assert len(job.cursor.to_table()) == 0
        assert job.reports[0].servers_touched == 0


class TestScaleOut:
    def test_add_servers_preserves_data(self, photo):
        archive = DistributedArchive.from_table(photo, depth=5, n_servers=4)
        moved = archive.add_servers(2)
        assert archive.total_objects() == len(photo)
        assert len(archive.servers) == 6
        assert moved > 0  # repartitioning really moved something

    def test_add_servers_rebalances(self, photo):
        archive = DistributedArchive.from_table(photo, depth=5, n_servers=2)
        archive.add_servers(4)
        loads = archive.server_loads()
        mean = sum(loads.values()) / len(loads)
        assert max(loads.values()) < 1.6 * mean

    def test_queries_correct_after_scale_out(self, photo):
        archive = DistributedArchive.from_table(photo, depth=5, n_servers=3)
        query = "SELECT * FROM photo WHERE CIRCLE(40, 30, 6)"
        mask = circle_region(40.0, 30.0, 6.0).contains(photo.positions_xyz())
        expected = rows_by_objid(photo.select(mask))
        with Archive.connect(archive=archive) as session:
            before = session.query_table(query)
            archive.add_servers(3)
            after = session.query_table(query)
        np.testing.assert_array_equal(rows_by_objid(before), expected)
        np.testing.assert_array_equal(rows_by_objid(after), expected)

    def test_incremental_load(self, photo):
        half = len(photo) // 2
        archive = DistributedArchive(photo.schema, 5, 4)
        archive.load(photo.take(np.arange(half)))
        archive.load(photo.take(np.arange(half, len(photo))))
        assert archive.total_objects() == len(photo)
        with Archive.connect(archive=archive) as session:
            result = session.query_table("SELECT * FROM photo")
        np.testing.assert_array_equal(rows_by_objid(result), rows_by_objid(photo))

    def test_add_servers_validated(self, photo):
        archive = DistributedArchive.from_table(photo, depth=5, n_servers=2)
        with pytest.raises(ValueError):
            archive.add_servers(0)
