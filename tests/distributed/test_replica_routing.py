"""Replication-aware shard routing: sweeps ride the least-loaded replica.

*"Some of the high-traffic data will be replicated among servers.  It is
up to the database software to manage this partitioning and
replication."*  When the archive carries a ReplicationManager, the
router assigns each touched shard's sweep to the least-loaded server
holding a copy of that shard's data; without replicas the assignment
falls back to round-robin over the (single-copy) set — the primary.
"""

import pytest

from repro.distributed import assign_sweep_servers
from repro.distributed.routing import route_plan, scan_jobs_for
from repro.session import Archive
from repro.storage import DistributedArchive


@pytest.fixture()
def archive(photo):
    return DistributedArchive.from_table(photo, depth=5, n_servers=3)


class TestAssignment:
    def test_without_replication_each_shard_sweeps_on_its_primary(self):
        assignment = assign_sweep_servers([0, 1, 2], replication=None)
        assert assignment == {0: 0, 1: 1, 2: 2}

    def test_least_loaded_replica_is_chosen(self, archive):
        replication = archive.enable_replication(replication_factor=2)
        # Replicate one of server 0's containers onto server 2, and make
        # server 0 look busy.
        cid = next(
            c for c in archive.servers[0].store.occupied_ids()
            if replication.primary_for(c) == 0
        )
        replication.replicas[cid].add(2)
        replication.server_load[0] = 100
        replication.server_load[2] = 0
        assignment = assign_sweep_servers([0], replication=replication)
        assert assignment == {0: 2}
        # The choice is charged, so repeated assignments spread load.
        assert replication.server_load[2] == 1

    def test_shards_without_replicas_stay_on_primary(self, archive):
        replication = archive.enable_replication()
        cid = next(
            c for c in archive.servers[1].store.occupied_ids()
            if replication.primary_for(c) == 1
        )
        replication.replicas[cid].add(0)
        replication.server_load[0] = 0
        replication.server_load[1] = 50
        assignment = assign_sweep_servers([0, 1, 2], replication=replication)
        assert assignment[0] == 0  # no replicas of shard 0's data
        assert assignment[1] == 0  # shard 1 offloads to its replica
        assert assignment[2] == 2


class TestRoutedReports:
    def test_route_plan_records_assignments(self, archive):
        touched, report = route_plan(archive, "photo", None)
        assert set(report.sweep_assignments) == set(report.touched_server_ids)
        # No replication attached: every shard sweeps on its primary.
        assert all(k == v for k, v in report.sweep_assignments.items())

    def test_scan_jobs_use_the_assigned_sweep_machine(self, archive):
        replication = archive.enable_replication()
        for cid in list(archive.servers[0].store.occupied_ids())[:5]:
            if replication.primary_for(cid) == 0:
                replication.replicas[cid].add(1)
        replication.server_load[0] = 100
        _touched, report = route_plan(archive, "photo", None)
        assert report.sweep_assignments[0] == 1
        jobs = scan_jobs_for("q", report)
        by_shard = {
            int(j.name.split("@server")[1]): j.machine for j in jobs
        }
        assert by_shard[0] == "sweep:1"
        # Durations still price the shard's resident bytes.
        for job, server_id in zip(jobs, report.touched_server_ids):
            assert job.duration == report.simulated_seconds_per_server[server_id]

    def test_results_are_identical_with_replication_enabled(self, photo, archive):
        query = "SELECT objid, mag_r FROM photo WHERE mag_r < 17"
        with Archive.connect(archive=archive) as session:
            plain = session.query_table(query)
            replication = archive.enable_replication()
            for cid in list(archive.servers[0].store.occupied_ids())[:10]:
                replication.replicas[cid].add(2)
            routed = session.query_table(query)
        assert len(plain) == len(routed)
        assert set(plain["objid"].tolist()) == set(routed["objid"].tolist())

    def test_repartition_keeps_replication_map_fresh(self, photo, archive):
        replication = archive.enable_replication()
        archive.add_servers(1)
        assert replication.partition_map is archive.partition_map
        assert replication.partition_map.n_servers == 4
