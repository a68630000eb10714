"""Tenant isolation: identity scopes MyDB, cache, and job handles.

In-process and over ``archive://``: user A can never read user B's
workspace, be served B's private cached rows, or fetch/cancel B's jobs.
"""

from __future__ import annotations

import time

import pytest

from repro.query.errors import PlanError
from repro.service import ServiceTier, UserRegistry
from repro.service.errors import AuthenticationError
from repro.session import Archive

SAVE = "SELECT objid, mag_r INTO mydb.mine FROM photo WHERE mag_r < 16"
READ = "SELECT objid, mag_r FROM mydb.mine"


class TestRegistry:
    def test_authenticate(self):
        registry = UserRegistry({"alice": "s3cret"})
        assert registry.authenticate("alice", "s3cret") == "alice"
        for user, token in (
            ("alice", "wrong"),
            ("alice", None),
            ("mallory", "s3cret"),
            (None, "s3cret"),
        ):
            with pytest.raises(AuthenticationError):
                registry.authenticate(user, token)

    def test_connect_validates_local_credentials(self, fresh_engine):
        tier = ServiceTier(auth={"alice": "s3cret"})
        with pytest.raises(AuthenticationError):
            Archive.connect(
                fresh_engine, service=tier, user="alice", token="wrong"
            )
        with Archive.connect(
            fresh_engine, service=tier, user="alice", token="s3cret"
        ) as session:
            assert session.user == "alice"


class TestLocalIsolation:
    def test_mydb_namespaces_are_private(self, cached_session, tier):
        cached_session.submit(SAVE, user="alice").cursor.to_table()
        assert tier.mydb.tables("alice") == ["mine"]
        assert tier.mydb.tables("bob") == []
        # Bob's session-level read of the same name fails to plan: the
        # table simply does not exist in his namespace.
        with pytest.raises(PlanError):
            cached_session.submit(READ, user="bob").cursor.to_table()

    def test_cache_scope_is_per_user(self, cached_session):
        # Same query text, same table name, different owners, different
        # rows: the cache must key on the identity, not just the text.
        cached_session.submit(
            "SELECT objid INTO mydb.mine FROM photo WHERE mag_r < 16",
            user="alice",
        ).cursor.to_table()
        cached_session.submit(
            "SELECT objid INTO mydb.mine FROM photo WHERE mag_r < 14",
            user="bob",
        ).cursor.to_table()

        alice_rows = cached_session.submit(
            "SELECT objid FROM mydb.mine", user="alice"
        ).cursor.to_table()
        warm = cached_session.submit("SELECT objid FROM mydb.mine", user="alice")
        assert warm.cursor.to_table() is not None and warm.cache_hit

        bob = cached_session.submit("SELECT objid FROM mydb.mine", user="bob")
        bob_rows = bob.cursor.to_table()
        assert not bob.cache_hit  # alice's entry must not serve bob
        assert len(bob_rows) < len(alice_rows)

    def test_catalog_cache_is_shared(self, cached_session):
        # Public-source results have no owner: one user's fill serves
        # the next user's repeat.
        query = "SELECT objid FROM photo WHERE mag_r < 16"
        cached_session.submit(query, user="alice").cursor.to_table()
        repeat = cached_session.submit(query, user="bob")
        repeat.cursor.to_table()
        assert repeat.cache_hit


class TestWireIsolation:
    @pytest.fixture()
    def server(self, fresh_stores):
        from repro.net.server import ArchiveServer

        # Small batches: a streaming job stays live (bounded client
        # stream, unread) long enough for another tenant to probe it.
        with ArchiveServer(
            stores=fresh_stores,
            auth={"alice": "s3cret", "bob": "hunter2"},
            cache=True,
            batch_rows=64,
        ) as running:
            yield running

    def _connect(self, server, user, token):
        host_port = server.url.removeprefix("archive://")
        return Archive.connect(f"archive://{user}:{token}@{host_port}")

    def test_bad_or_missing_credentials_refused(self, server):
        with pytest.raises(AuthenticationError):
            with self._connect(server, "alice", "wrong") as session:
                session.query_table("SELECT objid FROM photo WHERE mag_r < 15")
        with pytest.raises(AuthenticationError):
            with Archive.connect(server.url) as session:
                session.query_table("SELECT objid FROM photo WHERE mag_r < 15")

    def test_mydb_is_private_over_the_wire(self, server):
        with self._connect(server, "alice", "s3cret") as alice:
            alice.execute(SAVE).to_table()
            assert alice.my_tables() == ["mine"]
            with self._connect(server, "bob", "hunter2") as bob:
                assert bob.my_tables() == []
                with pytest.raises(PlanError):
                    bob.query_table(READ)

    def test_job_handles_are_owner_scoped(self, server):
        from repro.net.client import open_connection, _request

        with self._connect(server, "alice", "s3cret") as alice:
            job = alice.submit("SELECT objid, mag_r FROM photo WHERE mag_r < 25")
            root = job._prepared.root
            # The remote job id exists once the server accepts the
            # submission; the streaming connection then stays open
            # (bounded stream, unread client side), keeping the job
            # live while bob probes it.
            deadline = time.monotonic() + 10.0
            while root.remote_job_id is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert root.remote_job_id is not None

            probe = open_connection(server.address, 5.0, 5.0)
            try:
                _request(probe, {"op": "hello", "user": "bob", "token": "hunter2"})
                for op in (
                    {"op": "fetch_batch", "job_id": root.remote_job_id},
                    {"op": "cancel", "job_id": root.remote_job_id},
                ):
                    with pytest.raises(AuthenticationError):
                        _request(probe, op)
            finally:
                probe.close()

            # Alice's job is unharmed by the denied probes.
            table = job.cursor.to_table()
            assert len(table) > 0

    def test_anonymous_probe_refused_outright(self, server):
        from repro.net.client import open_connection, _request

        probe = open_connection(server.address, 5.0, 5.0)
        try:
            with pytest.raises(AuthenticationError):
                _request(probe, {"op": "cancel", "job_id": "rjob-1"})
        finally:
            probe.close()
