"""Shard pruning must be conservative — never drop a matching object.

Property-style: random caps and convexes at several container depths;
every server that physically holds an object inside the region must be
in the touched set computed from the region's HTM cover.  (The inverse —
that *some* server gets pruned for small regions — is checked too, so
the property is not vacuously satisfied by touching everyone.)

The acceptance check rides along: a distributed query performs **zero**
container reads on servers outside its cover.
"""

import numpy as np
import pytest

from repro.distributed.routing import route_plan
from repro.geometry.shapes import circle_region
from repro.htm.cover import cover_region
from repro.htm.mesh import lookup_ids_from_vectors
from repro.session import Archive
from repro.storage import ContainerStore, DistributedArchive

N_TRIALS = 12


def random_regions(rng):
    """Caps and two-cap convex intersections, sized from tiny to broad."""
    for _ in range(N_TRIALS):
        ra = float(rng.uniform(0.0, 360.0))
        dec = float(rng.uniform(-85.0, 85.0))
        radius = float(rng.uniform(0.3, 30.0))
        yield circle_region(ra, dec, radius)
        # A lens-shaped convex: two overlapping caps.
        other = circle_region(
            ra + float(rng.uniform(-radius, radius)),
            float(np.clip(dec + rng.uniform(-radius, radius), -89.0, 89.0)),
            radius,
        )
        yield circle_region(ra, dec, radius).intersect(other)


@pytest.mark.parametrize("depth", [3, 5])
def test_cover_pruning_never_drops_matching_objects(photo, rng, depth):
    archive = DistributedArchive.from_table(photo, depth=depth, n_servers=5)
    xyz = photo.positions_xyz()
    some_server_pruned = False
    for region in random_regions(rng):
        candidates = cover_region(region, depth).candidates()
        assignments, _report = route_plan(archive, "photo", candidates)
        touched = {server.server_id for server, _assigned in assignments}
        some_server_pruned |= len(touched) < len(archive.servers)

        mask = np.asarray(region.contains(xyz), dtype=bool)
        if not mask.any():
            continue
        owners = {
            archive.partition_map.server_for(htm_id)
            for htm_id in lookup_ids_from_vectors(xyz[mask], depth)
        }
        assert owners <= touched, (
            f"pruned a server holding matching objects: owners={owners}, "
            f"touched={touched}"
        )
    assert some_server_pruned, "no region ever pruned anything — vacuous test"


class _CountingStore(ContainerStore):
    """Spy: counts every read of a store's rows — all of them go through
    its current snapshot."""

    reads = 0

    @property
    def snapshot(self):
        self.reads += 1
        return self.__dict__["snapshot"]

    @snapshot.setter
    def snapshot(self, value):
        self.__dict__["snapshot"] = value


class TestPrunedServersNeverRead:
    @pytest.fixture()
    def spied(self, make_archive):
        archive = make_archive(5)
        for server in archive.servers:
            for store in server.stores().values():
                store.__class__ = _CountingStore
        return archive

    def test_zero_container_reads_outside_cover(self, spied, session, assert_same_rows):
        query = "SELECT objid FROM photo WHERE CIRCLE(40, 30, 2)"
        with Archive.connect(archive=spied) as dsession:
            job = dsession.submit(query)
            table = job.cursor.to_table()
        assert_same_rows(session.query_table(query), table)

        (report,) = job.reports
        assert report.pruned_server_ids, "query too broad to prune anything"
        for server in spied.servers:
            reads = sum(
                store.reads for store in server.stores().values()
            )
            if server.server_id in report.pruned_server_ids:
                assert reads == 0, (
                    f"server {server.server_id} was pruned but read "
                    f"{reads} times"
                )
            else:
                assert reads > 0

    def test_aggregate_also_prunes(self, spied):
        with Archive.connect(archive=spied) as dsession:
            job = dsession.submit(
                "SELECT COUNT(objid) AS n FROM photo WHERE CIRCLE(40, 30, 2)"
            )
            job.cursor.to_table()
        (report,) = job.reports
        assert report.pruned_server_ids
        for server in spied.servers:
            if server.server_id in report.pruned_server_ids:
                assert (
                    sum(s.reads for s in server.stores().values())
                    == 0
                )
