"""Cursor semantics: schema-always-known, pagination, streaming, drains."""

import numpy as np
import pytest


BACKENDS = ["local_session", "dist_session"]


@pytest.fixture(params=BACKENDS)
def session(request):
    return request.getfixturevalue(request.param)


class TestSchema:
    def test_known_before_any_row(self, session):
        cursor = session.execute(
            "SELECT objid, mag_g - mag_r AS gr FROM photo WHERE mag_r < 18"
        )
        assert cursor.schema.field_names() == ["objid", "gr"]
        cursor.cancel()  # no row was wanted: stop the tree

    def test_known_for_empty_results(self, session):
        cursor = session.execute("SELECT objid, mag_r FROM photo WHERE mag_r < 0")
        table = cursor.to_table()
        assert len(table) == 0
        assert table.schema.field_names() == ["objid", "mag_r"]

    def test_empty_dtypes_match_nonempty(self, session):
        empty = session.query_table(
            "SELECT objid, mag_g - mag_r AS gr FROM photo WHERE mag_r < 0"
        )
        full = session.query_table(
            "SELECT objid, mag_g - mag_r AS gr FROM photo WHERE mag_r < 25"
        )
        assert len(empty) == 0 and len(full) > 0
        assert empty.data.dtype == full.data.dtype


class TestPagination:
    def test_fetchmany_pages_cover_everything(self, session):
        query = "SELECT objid, mag_r FROM photo WHERE mag_r < 19 ORDER BY mag_r, objid"
        expected = session.query_table(query)
        cursor = session.execute(query)
        pages = []
        while True:
            page = cursor.fetchmany(37)
            if len(page) == 0:
                break
            pages.append(page)
        assert all(len(p) == 37 for p in pages[:-1])
        got = np.concatenate([p.data for p in pages])
        np.testing.assert_array_equal(got, expected.data)

    def test_fetchmany_exact_boundary(self, session):
        cursor = session.execute("SELECT objid FROM photo ORDER BY objid LIMIT 10")
        first = cursor.fetchmany(10)
        assert len(first) == 10
        rest = cursor.fetchmany(10)
        assert len(rest) == 0
        assert rest.schema.field_names() == ["objid"]

    def test_fetchmany_zero_and_negative(self, session):
        cursor = session.execute("SELECT objid FROM photo LIMIT 5")
        assert len(cursor.fetchmany(0)) == 0
        with pytest.raises(ValueError):
            cursor.fetchmany(-1)

    def test_page_then_drain(self, session):
        query = "SELECT objid FROM photo WHERE mag_r < 20 ORDER BY objid"
        expected = session.query_table(query)
        cursor = session.execute(query)
        head = cursor.fetchmany(11)
        tail = cursor.to_table()
        assert len(head) == 11
        assert len(head) + len(tail) == len(expected)
        got = np.concatenate([head.data, tail.data])
        np.testing.assert_array_equal(got, expected.data)


class TestStreaming:
    def test_iteration_yields_batches(self, session):
        cursor = session.execute("SELECT objid FROM photo")
        total = sum(len(batch) for batch in cursor)
        assert total == cursor.rows > 0
        assert cursor.time_to_first_row is not None
        assert cursor.time_to_first_row <= cursor.time_to_completion

    def test_fetchall_alias(self, session):
        a = session.execute("SELECT objid FROM photo LIMIT 20").fetchall()
        b = session.execute("SELECT objid FROM photo LIMIT 20").to_table()
        assert len(a) == len(b) == 20

    def test_node_stats_after_drain(self, session):
        cursor = session.execute("SELECT objid FROM photo WHERE mag_r < 18")
        cursor.to_table()
        stats = cursor.node_stats()
        assert stats and all(hasattr(s, "rows_out") for s in stats.values())
