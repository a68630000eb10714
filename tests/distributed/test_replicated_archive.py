"""A replicated in-process archive answers exactly like an unreplicated one.

After :func:`replicate_archive` every container also lives on the server
after its owner.  Each shard scan reads only the containers its server
owns under the query's cover, so no row is read twice: a full scan,
``COUNT(objid)`` and cones astride every partition boundary return what
the unreplicated archive returns.
"""

import numpy as np
import pytest

from repro.htm.mesh import lookup_ids
from repro.session import Archive
from repro.storage import replicate_archive

N_SERVERS = 5


@pytest.fixture(scope="module")
def sessions(make_archive):
    """``(plain, replicated)`` sessions over two 5-server partitionings."""
    replicated = make_archive(N_SERVERS)
    assert replicate_archive(replicated, replication_factor=2) > 0
    with Archive.connect(archive=make_archive(N_SERVERS)) as plain:
        with Archive.connect(archive=replicated) as copies:
            yield plain, copies


def boundary_cones(photo, archive_depth, boundaries):
    """A small and a wide cone on the first object at or after each
    interior partition boundary."""
    ra, dec = np.asarray(photo["ra"]), np.asarray(photo["dec"])
    ids = lookup_ids(ra, dec, archive_depth)
    for boundary in boundaries[1:-1]:
        after = np.flatnonzero(ids >= boundary)
        first = after[np.argmin(ids[after])]
        for radius in (2, 15):
            yield f"CIRCLE({ra[first]:.6f}, {dec[first]:.6f}, {radius})"


def objids(session, query):
    return np.sort(np.asarray(session.query_table(query)["objid"]))


def test_full_scan_returns_every_object_once(sessions, photo):
    plain, copies = sessions
    got = objids(copies, "SELECT objid FROM photo")
    assert len(got) == len(photo)
    np.testing.assert_array_equal(got, objids(plain, "SELECT objid FROM photo"))


def test_count_counts_every_object_once(sessions, photo):
    _plain, copies = sessions
    table = copies.query_table("SELECT COUNT(objid) AS n FROM photo")
    assert int(table["n"][0]) == len(photo)


def test_cones_around_partition_boundaries(sessions, photo):
    plain, copies = sessions
    archive = copies.executor.archive
    cones = list(
        boundary_cones(photo, archive.depth, archive.partition_map.boundaries)
    )
    assert len(cones) == 2 * (N_SERVERS - 1)
    for cone in cones:
        query = f"SELECT objid FROM photo WHERE {cone}"
        expected = objids(plain, query)
        assert len(expected), cone
        np.testing.assert_array_equal(objids(copies, query), expected, err_msg=cone)


def test_ordered_cone_keeps_its_order(sessions):
    plain, copies = sessions
    query = "SELECT objid, mag_r FROM photo WHERE CIRCLE(120, 10, 30) ORDER BY mag_r, objid"
    np.testing.assert_array_equal(
        copies.query_table(query)["objid"], plain.query_table(query)["objid"]
    )
