"""Shard routing over a replicated archive.

*"Some of the high-traffic data will be replicated among servers.  It is
up to the database software to manage this partitioning and
replication."*  Attaching a ReplicationManager changes no answer, and a
repartition keeps its map current.
"""

import pytest

from repro.session import Archive
from repro.storage import DistributedArchive


@pytest.fixture()
def archive(photo):
    return DistributedArchive.from_table(photo, depth=5, n_servers=3)


class TestRoutedReports:
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
