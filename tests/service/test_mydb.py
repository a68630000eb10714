"""Per-user MyDB workspaces: INTO, round trips, quotas, DROP.

The acceptance differential: materialize with ``SELECT ... INTO
mydb.x``, read it back with ``FROM mydb.x``, and get row-for-row the
same table the direct query returns — locally and over ``archive://``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.query.errors import PlanError
from repro.service import MyDBManager, ServiceTier
from repro.service.errors import MyDBError, QuotaExceededError
from repro.session import Archive, SessionError

SAVE = (
    "SELECT objid, ra, dec, cx, cy, cz, mag_r INTO mydb.bright "
    "FROM photo WHERE mag_r < 16"
)
DIRECT = (
    "SELECT objid, ra, dec, cx, cy, cz, mag_r FROM photo WHERE mag_r < 16"
)


class TestManagerUnit:
    def test_bad_names_rejected(self, photo):
        mydb = MyDBManager()
        for bad in ("", "1abc", "a-b", "a.b", "mydb."):
            with pytest.raises(MyDBError):
                mydb.save("u", bad, photo)

    def test_quota_enforced_and_credited_back(self, photo):
        small = photo.take(np.arange(100))
        mydb = MyDBManager(quota_bytes=small.nbytes() + 1)
        mydb.save("u", "a", small)
        with pytest.raises(QuotaExceededError):
            mydb.save("u", "b", small)
        # Replacing table a credits its bytes back first, so the
        # replacement fits even at a full quota.
        mydb.save("u", "a", small)
        assert mydb.tables("u") == ["a"]

    def test_quotas_are_per_user(self, photo):
        small = photo.take(np.arange(100))
        mydb = MyDBManager(quota_bytes=small.nbytes() + 1)
        mydb.save("u", "a", small)
        mydb.save("v", "a", small)  # a different budget entirely
        assert mydb.usage("v")["bytes"] == small.nbytes()

    def test_drop_missing_raises(self):
        mydb = MyDBManager()
        with pytest.raises(MyDBError):
            mydb.drop("u", "ghost")

    def test_positionless_table_is_still_queryable(self, photo):
        # A projection without cx/cy/cz cannot cluster spatially: it
        # lands in one container but sweeps fine.
        mydb = MyDBManager()
        flat = photo.project(["objid", "mag_r"])
        store = mydb.save("u", "flat", flat)
        assert store.total_objects() == len(flat)


class TestLocalWorkspace:
    def test_into_roundtrip_differential(self, cached_session, same_rows):
        cached_session.execute(SAVE).to_table()
        assert cached_session.my_tables() == ["bright"]
        usage = cached_session.mydb_usage()
        assert usage["tables"] == 1 and usage["bytes"] > 0

        back = cached_session.query_table(
            "SELECT objid, ra, dec, cx, cy, cz, mag_r FROM mydb.bright"
        )
        direct = cached_session.query_table(DIRECT)
        assert len(direct) > 0
        same_rows(direct, back)

    def test_workspace_tables_compose_with_catalog_queries(
        self, cached_session, same_rows
    ):
        cached_session.execute(SAVE).to_table()
        filtered = cached_session.query_table(
            "SELECT objid FROM mydb.bright WHERE mag_r < 15 ORDER BY objid"
        )
        direct = cached_session.query_table(
            "SELECT objid FROM photo WHERE mag_r < 15 ORDER BY objid"
        )
        same_rows(direct, filtered)

    def test_re_into_replaces(self, cached_session):
        cached_session.execute(SAVE).to_table()
        first = cached_session.query_table("SELECT objid FROM mydb.bright")
        cached_session.execute(
            "SELECT objid, mag_r INTO mydb.bright FROM photo WHERE mag_r < 14"
        ).to_table()
        second = cached_session.query_table("SELECT objid FROM mydb.bright")
        assert len(second) < len(first)

    def test_replacement_invalidates_cached_reads(self, cached_session, tier):
        cached_session.execute(SAVE).to_table()
        read = "SELECT objid FROM mydb.bright"
        cached_session.execute(read).to_table()
        warm = cached_session.submit(read)
        warm.cursor.to_table()
        assert warm.cache_hit
        # Replacing the table builds a new store (fresh uid): the next
        # read must re-execute, not replay the old rows.
        cached_session.execute(SAVE).to_table()
        cold = cached_session.submit(read)
        cold.cursor.to_table()
        assert not cold.cache_hit
        assert tier.cache.stats.invalidations >= 1

    def test_drop_cleans_up(self, cached_session):
        cached_session.execute(SAVE).to_table()
        cached_session.drop_my_table("bright")
        assert cached_session.my_tables() == []
        with pytest.raises(Exception):
            cached_session.query_table("SELECT objid FROM mydb.bright")

    def test_into_needs_mydb_namespace(self, cached_session):
        with pytest.raises(SessionError):
            cached_session.execute(
                "SELECT objid INTO photo2 FROM photo WHERE mag_r < 15"
            )

    def test_into_without_tier_raises(self, plain_session):
        with pytest.raises(SessionError):
            plain_session.execute(SAVE)

    def test_explain_sees_the_workspace_like_execute_does(self, fresh_engine):
        # explain used to call executor.prepare directly and skip the
        # MyDB overlay submit applies: "unknown source 'mydb.bright'"
        # for a table execute and explain_analyze could read.
        read = "SELECT objid FROM mydb.bright"
        tier = ServiceTier()
        with Archive.connect(fresh_engine, service=tier, user="ann") as session:
            session.execute(SAVE)
            tree = session.explain(read)
            assert tree.find("scan")[0].detail["source"] == "mydb.bright"
            rows = len(session.query_table(read))
            assert rows > 0
            assert session.explain_analyze(read).detail["rows"] == rows
        # ... and stays per-user: another tenant has no such table.
        with Archive.connect(fresh_engine, service=tier, user="bob") as session:
            with pytest.raises(PlanError):
                session.explain(read)

    def test_quota_error_surfaces_to_reader(self, fresh_engine):
        tier = ServiceTier(mydb_quota_bytes=64)
        with Archive.connect(fresh_engine, service=tier) as session:
            with pytest.raises(QuotaExceededError):
                session.execute(SAVE)
            assert session.my_tables() == []


class TestRemoteWorkspace:
    def test_into_roundtrip_over_the_wire(self, fresh_stores, same_rows):
        from repro.net.server import ArchiveServer

        with ArchiveServer(stores=fresh_stores) as server:
            with Archive.connect(server.url) as session:
                session.execute(SAVE).to_table()
                assert session.my_tables() == ["bright"]
                assert session.mydb_usage()["bytes"] > 0
                back = session.query_table(
                    "SELECT objid, ra, dec, cx, cy, cz, mag_r FROM mydb.bright"
                )
                direct = session.query_table(DIRECT)
                assert len(direct) > 0
                same_rows(direct, back)
                tree = session.explain("SELECT objid FROM mydb.bright")
                assert "mydb.bright" in tree.render()
                session.drop_my_table("bright")
                assert session.my_tables() == []

    def test_remote_quota_error_keeps_its_class(self, fresh_stores):
        from repro.net.server import ArchiveServer
        from repro.query.errors import ExecutionError

        with ArchiveServer(
            stores=fresh_stores, mydb_quota_bytes=64
        ) as server:
            with Archive.connect(server.url) as session:
                # The submission fails inside the streaming node, so the
                # reader sees the stream's ExecutionError — with the
                # original server-side class preserved as its cause
                # (the wire re-raised it from the trusted module list).
                with pytest.raises(ExecutionError) as excinfo:
                    session.execute(SAVE).to_table()
                assert isinstance(excinfo.value.__cause__, QuotaExceededError)
