"""Process-based shard backend: N shard servers in N OS processes.

Differential against the in-process single-store oracle (the ``engine``
fixture), plus the lifecycle contract: ``Archive.connect(...,
process_shards=True)`` ties the cluster to the session, and closing the
session reaps every shard process — no zombie children, no leaked
sockets.

One 2-shard cluster is shared module-wide: spawn-start cost (a full
interpreter + numpy import per child) dominates, so tests treat the
cluster as read-only the same way the other suites treat the shared
stores.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed.process import ProcessShardCluster, shard_handles
from repro.session import Archive

N_SHARDS = 2


@pytest.fixture(scope="module")
def process_session(make_archive):
    """A session over a 2-shard process cluster (treat as read-only)."""
    archive = make_archive(N_SHARDS)
    session = Archive.connect(archive=archive, process_shards=True)
    cluster = session._owned[0]
    yield session, cluster
    session.close()


def _table(session, query):
    return session.submit(query).cursor.to_table()


DIFFERENTIAL = [
    ("SELECT objid, ra, dec, mag_r FROM photo WHERE mag_r < 19", False),
    ("SELECT objid, mag_r FROM photo ORDER BY mag_r LIMIT 20", True),
    ("SELECT objid, mag_r FROM photo ORDER BY mag_r DESC LIMIT 20", True),
    (
        "SELECT objtype, COUNT(objid) AS n, AVG(mag_r) AS m FROM photo "
        "GROUP BY objtype ORDER BY objtype",
        True,
    ),
    # The shard processes are the way to more cores: a full scan, a
    # conjunctive filter and every aggregate kind come back whole too.
    ("SELECT objid, ra, dec, mag_r FROM photo", False),
    ("SELECT objid, mag_r FROM photo WHERE mag_r < 19 AND objtype = GALAXY", False),
    (
        "SELECT objtype, COUNT(objid) AS n, AVG(mag_r) AS m, MIN(mag_g) AS lo,"
        " MAX(mag_g) AS hi, SUM(mag_u) AS s FROM photo GROUP BY objtype"
        " ORDER BY objtype",
        True,
    ),
    # Spatial shapes: the coordinator covers once and each shard process
    # scans its assignment under that cover.
    ("SELECT objid, ra, dec FROM photo WHERE CIRCLE(120, 10, 20)", False),
    (
        "SELECT objid, mag_r FROM photo WHERE CIRCLE(200, -20, 25) "
        "ORDER BY mag_r, objid LIMIT 15",
        True,
    ),
    ("SELECT objid, ra, dec FROM photo WHERE RECT(100, 190, -30, 30)", False),
    ("SELECT objid FROM photo WHERE POLYGON(0, 0, 10, 0, 5, 8)", False),
    (
        "SELECT objtype, COUNT(objid) AS n, AVG(mag_r) AS m FROM photo "
        "WHERE CIRCLE(300, 0, 40) GROUP BY objtype ORDER BY objtype",
        True,
    ),
]


class TestDifferential:
    @pytest.mark.parametrize("query,ordered", DIFFERENTIAL)
    def test_matches_single_store_oracle(
        self, process_session, session, assert_same_rows, query, ordered
    ):
        shards, _cluster = process_session
        expected = session.query_table(query)
        got = _table(shards, query)
        assert_same_rows(expected, got, ordered=ordered)

    def test_scan_telemetry_crosses_the_process_boundary(self, process_session):
        """The containers the shard processes delivered are counted on
        this side of the wire."""
        session, _cluster = process_session
        job = session.submit("SELECT objid, mag_r FROM photo WHERE mag_r < 20")
        job.cursor.to_table()
        report = job.io_report()
        assert report["containers_read"] + report["containers_from_pool"] > 0


def test_into_is_refused_not_silently_dropped(process_session):
    from repro.session import SessionError

    session, _cluster = process_session
    with pytest.raises(SessionError, match="needs a MyDB-enabled service tier"):
        session.submit("SELECT objid INTO mydb.bright FROM photo WHERE mag_r < 18")


class TestLifecycle:
    def test_cluster_spawned_one_process_per_shard(self, process_session):
        _session, cluster = process_session
        assert len(cluster) == N_SHARDS
        assert cluster.alive() == N_SHARDS
        assert len(cluster.urls) == N_SHARDS
        assert all(url.startswith("archive://127.0.0.1:") for url in cluster.urls)

    def test_handles_cover_every_row_without_parent_state(self, make_archive):
        archive = make_archive(N_SHARDS)
        handles = shard_handles(archive)
        assert len(handles) == N_SHARDS
        total = sum(len(h["sources"]["photo"]) for h in handles)
        assert total == archive.total_objects()
        tag_total = sum(len(h["sources"]["tag"]) for h in handles)
        assert tag_total > 0
        assert all(h["depth"] == archive.depth for h in handles)

    def test_session_close_reaps_every_shard_process(self, make_archive):
        archive = make_archive(N_SHARDS)
        session = Archive.connect(archive=archive, process_shards=True)
        cluster = session._owned[0]
        assert cluster.alive() == N_SHARDS
        job = session.submit("SELECT objid FROM photo WHERE mag_r < 18")
        job.cursor.to_table()
        session.close()
        assert cluster.alive() == 0
        session.close()  # idempotent
        assert cluster.alive() == 0

    def test_cluster_close_is_idempotent(self, process_session):
        """close() twice must be safe (session close will run it again)."""
        # Build a throwaway single-shard cluster so the shared one stays up.
        assert ProcessShardCluster([], [], []).alive() == 0
        empty = ProcessShardCluster([], [], [])
        empty.close()
        empty.close()

    def test_a_refused_connect_reaps_the_shard_processes(self, make_archive):
        """Regression: bad credentials failed the connect after the
        cluster had started and left every shard process running."""
        import multiprocessing

        from repro.service import AuthenticationError, ServiceTier

        before = set(multiprocessing.active_children())
        with pytest.raises(AuthenticationError):
            Archive.connect(
                archive=make_archive(N_SHARDS),
                process_shards=True,
                service=ServiceTier(auth={"alice": "s3cret"}),
                user="alice",
                token="wrong",
            )
        assert set(multiprocessing.active_children()) <= before

    def test_requires_a_distributed_archive(self, photo_store):
        with pytest.raises(TypeError, match="process_shards"):
            Archive.connect(
                stores={"photo": photo_store}, process_shards=True
            )
