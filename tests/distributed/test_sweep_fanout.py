"""Per-server sweeps on the live distributed path.

The paper's policy — "the scan machine will be interactively scheduled"
— extends to the fleet: each partition server runs one shared sweep per
store, a distributed query puts one shard scan on the sweep of every
server its cover touches, and concurrent queries ride those sweeps
together instead of queueing behind one another.  The fan-out report prices each touched
shard from the bytes resident under the cover.
"""

import pytest

from repro.session import Archive, JobState

#: the server counts of the ``archives`` / ``dsessions`` fixtures
SERVER_COUNTS = (1, 2, 5)

# ``run`` is not a tag column, so both queries scan the photo store.
CONE = "SELECT objid, run FROM photo WHERE CIRCLE(40, 30, 2)"
FULL = "SELECT objid, run FROM photo"


def _report(session, query):
    job = session.submit(query)
    table = job.cursor.to_table()
    (report,) = job.reports
    assert report.source == "photo"
    return report, table


class TestTouchedServers:
    @pytest.mark.parametrize("n_servers", SERVER_COUNTS)
    def test_full_scan_touches_every_server(self, dsessions, archives, n_servers):
        report, table = _report(dsessions[n_servers], FULL)
        servers = [server.server_id for server in archives[n_servers].servers]
        assert report.servers_total == n_servers
        assert report.touched_server_ids == servers
        assert report.pruned_server_ids == []
        assert len(table) == sum(
            server.stores()["photo"].total_objects()
            for server in archives[n_servers].servers
        )

    def test_touched_and_pruned_split_the_fleet(self, dsessions, archives):
        report, _table = _report(dsessions[5], CONE)
        touched = set(report.touched_server_ids)
        pruned = set(report.pruned_server_ids)
        assert touched and pruned, "the cone should prune some servers"
        assert not touched & pruned
        assert touched | pruned == {s.server_id for s in archives[5].servers}
        assert set(report.simulated_seconds_per_server) == touched
        assert set(report.estimated_bytes_per_server) == touched


class TestPricing:
    @pytest.mark.parametrize("n_servers", SERVER_COUNTS)
    def test_full_scan_prices_every_resident_byte(
        self, dsessions, archives, n_servers
    ):
        archive = archives[n_servers]
        report, _table = _report(dsessions[n_servers], FULL)
        for server in archive.servers:
            nbytes = server.stores()["photo"].total_bytes()
            assert report.estimated_bytes_per_server[server.server_id] == nbytes
            assert report.simulated_seconds_per_server[
                server.server_id
            ] == server.node_model.scan_seconds(nbytes)
        assert report.simulated_seconds == max(
            report.simulated_seconds_per_server.values()
        )
        assert report.simulated_seconds_single_server == (
            archive.node_model.scan_seconds(
                sum(report.estimated_bytes_per_server.values())
            )
        )

    def test_a_cone_prices_only_the_bytes_under_its_cover(self, dsessions, archives):
        report, _table = _report(dsessions[5], CONE)
        for server_id in report.touched_server_ids:
            store = archives[5].servers[server_id].stores()["photo"]
            assert 0 < report.estimated_bytes_per_server[server_id]
            assert report.estimated_bytes_per_server[server_id] < store.total_bytes()

    def test_one_server_gains_nothing_from_fan_out(self, dsessions):
        report, _table = _report(dsessions[1], FULL)
        assert report.parallel_speedup() == pytest.approx(1.0)


class TestSharedServerSweeps:
    K_JOBS = 4

    def test_concurrent_jobs_run_side_by_side_on_each_servers_sweep(
        self, make_archive
    ):
        """K interactive full scans start at submission and none waits
        behind another: drained last-submitted first, every job is served
        the whole catalog by each server's one sweep, and each container
        (a page of the server's arena) is read from disk once."""
        archive = make_archive(2)
        stores = [server.stores()["photo"] for server in archive.servers]
        with Archive.connect(archive=archive) as session:
            jobs = [session.submit(FULL) for _ in range(self.K_JOBS)]
            assert all(job.state is JobState.RUNNING for job in jobs)
            tables = [job.cursor.to_table() for job in reversed(jobs)]
            assert all(job.state is JobState.DONE for job in jobs)

        total_rows = sum(store.total_objects() for store in stores)
        assert [len(table) for table in tables] == [total_rows] * self.K_JOBS
        pages = [len(store.snapshot.pages()) for store in stores]
        for store, n in zip(stores, pages):
            stats = store.sweeper().stats
            assert stats.deliveries == self.K_JOBS * n
            assert stats.containers_read == n
            assert store.buffer_pool.stats.misses == n
        served = sum(
            job.io_report()["containers_read"]
            + job.io_report()["containers_from_pool"]
            for job in jobs
        )
        assert served == self.K_JOBS * sum(pages)
