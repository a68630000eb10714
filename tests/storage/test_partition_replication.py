"""Tests for repro.storage.partition and .replication."""

import numpy as np
import pytest

from repro.htm.mesh import depth_id_bounds
from repro.htm.ranges import RangeSet
from repro.storage.partition import PartitionMap, Partitioner
from repro.storage import DistributedArchive, replicate_archive


@pytest.fixture(scope="module")
def weights(photo_store_module):
    return photo_store_module.container_sizes()


@pytest.fixture(scope="module")
def photo_store_module(request):
    # Reuse the session store through the fixture chain.
    return request.getfixturevalue("photo_store")


class TestPartitionMap:
    def test_needs_matching_boundaries(self):
        with pytest.raises(ValueError):
            PartitionMap([0, 10], 2)

    def test_boundaries_sorted(self):
        with pytest.raises(ValueError):
            PartitionMap([10, 0, 20], 2)

    def test_server_for_ranges(self):
        pmap = PartitionMap([0, 10, 20], 2)
        assert pmap.server_for(0) == 0
        assert pmap.server_for(9) == 0
        assert pmap.server_for(10) == 1
        assert pmap.server_for(19) == 1

    def test_out_of_space_rejected(self):
        pmap = PartitionMap([0, 10, 20], 2)
        with pytest.raises(ValueError):
            pmap.server_for(25)

    def test_vectorized_matches_scalar(self, weights):
        partitioner = Partitioner(5)
        pmap = partitioner.build(weights, 4)
        ids = np.array(sorted(weights))
        vector_result = pmap.server_for_array(ids)
        scalar_result = np.array([pmap.server_for(int(i)) for i in ids])
        np.testing.assert_array_equal(vector_result, scalar_result)

    def test_ranges_cover_space(self):
        lo, hi = depth_id_bounds(5)
        pmap = Partitioner(5).build({}, 3)
        union = RangeSet()
        for server in range(3):
            union = union | pmap.ranges_for(server)
        assert union.intervals == ((lo, hi - 1),)

    def test_servers_for_rangeset(self, weights):
        pmap = Partitioner(5).build(weights, 4)
        lo, hi = depth_id_bounds(5)
        all_servers = pmap.servers_for_rangeset(RangeSet([(lo, hi - 1)]))
        assert all_servers == {0, 1, 2, 3}
        # A tiny range should hit one server.
        tiny = RangeSet([(lo + 5, lo + 5)])
        assert len(pmap.servers_for_rangeset(tiny)) == 1


class TestPartitioner:
    def test_balanced_loads(self, weights):
        pmap = Partitioner(5).build(weights, 5)
        loads = {}
        for cid, w in weights.items():
            server = pmap.server_for(cid)
            loads[server] = loads.get(server, 0) + w
        mean_load = sum(loads.values()) / 5
        assert max(loads.values()) < 1.3 * mean_load

    def test_single_server(self, weights):
        pmap = Partitioner(5).build(weights, 1)
        assert all(pmap.server_for(cid) == 0 for cid in weights)

    def test_needs_positive_servers(self, weights):
        with pytest.raises(ValueError):
            Partitioner(5).build(weights, 0)

    def test_repartition_reports_movement(self, weights):
        partitioner = Partitioner(5)
        old = partitioner.build(weights, 4)
        new, report = partitioner.repartition(old, weights, 6)
        assert report.objects_total == sum(weights.values())
        assert 0.0 <= report.moved_fraction() <= 1.0
        # Same server count should move nothing.
        _same, report_same = partitioner.repartition(old, weights, 4)
        assert report_same.objects_moved == 0

    def test_locality_preserved(self, weights):
        # Contiguous id ranges: consecutive occupied containers map to
        # non-decreasing servers.
        pmap = Partitioner(5).build(weights, 4)
        servers = [pmap.server_for(cid) for cid in sorted(weights)]
        assert servers == sorted(servers)


class TestReplicateArchive:
    """The placement rule: owner plus the next k-1 servers, wrapping
    around, every source together; the stores are the only record."""

    N_SERVERS = 4

    @pytest.fixture()
    def archive(self, photo, tags):
        archive = DistributedArchive.from_table(photo, depth=5, n_servers=self.N_SERVERS)
        archive.attach_source("tag", tags)
        return archive

    @staticmethod
    def contents(archive):
        """(source, server id) -> the sorted (container id, objid) rows it
        holds; a list, so a row held twice shows."""
        held = {}
        for server in archive.servers:
            for source, store in server.stores().items():
                table, htm_ids = store.rows()
                held[source, server.server_id] = sorted(
                    zip(htm_ids.tolist(), table["objid"].tolist())
                )
        return held

    @staticmethod
    def copies(contents):
        """How many (container, server) holdings ``contents`` has."""
        return sum(len({htm_id for htm_id, _ in rows}) for rows in contents.values())

    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_owner_and_the_next_servers_hold_every_container(self, archive, factor):
        before = self.contents(archive)
        replicate_archive(archive, replication_factor=factor)
        after = self.contents(archive)
        assert {source for source, _ in after} == {"photo", "tag"}
        for (source, server), rows in before.items():
            assert {archive.partition_map.server_for(h) for h, _ in rows} <= {server}
        for (source, server), rows in after.items():
            backed = [(server - k) % self.N_SERVERS for k in range(factor)]
            assert rows == sorted(row for owner in backed for row in before[source, owner])

    def test_count_is_the_copies_made(self, archive):
        before = self.copies(self.contents(archive))
        placed = replicate_archive(archive, replication_factor=3)
        assert placed == self.copies(self.contents(archive)) - before == 2 * before

    def test_a_second_call_places_nothing(self, archive):
        assert replicate_archive(archive, replication_factor=2) > 0
        before = self.contents(archive)
        assert replicate_archive(archive, replication_factor=2) == 0
        assert self.contents(archive) == before

    @pytest.mark.parametrize("factor", [0, N_SERVERS + 1])
    def test_factor_bounds(self, archive, factor):
        with pytest.raises(ValueError):
            replicate_archive(archive, replication_factor=factor)
