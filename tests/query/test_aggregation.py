"""Tests for GROUP BY / aggregation through the query engine."""

import numpy as np
import pytest

from repro.query.errors import PlanError
from repro.query.parser import parse_query
from repro.query.physical import plan_selects


class TestGlobalAggregates:
    def test_count(self, session, photo):
        result = session.query_table("SELECT COUNT(objid) AS n FROM photo")
        assert int(result["n"][0]) == len(photo)

    def test_min_max_avg_sum(self, session, photo):
        result = session.query_table(
            "SELECT MIN(mag_r) AS lo, MAX(mag_r) AS hi, "
            "AVG(mag_r) AS mean, SUM(mag_r) AS total FROM photo"
        )
        r = np.asarray(photo["mag_r"], dtype=np.float64)
        assert float(result["lo"][0]) == pytest.approx(r.min(), rel=1e-6)
        assert float(result["hi"][0]) == pytest.approx(r.max(), rel=1e-6)
        assert float(result["mean"][0]) == pytest.approx(r.mean(), rel=1e-5)
        assert float(result["total"][0]) == pytest.approx(r.sum(), rel=1e-5)

    def test_aggregate_over_expression(self, session, photo):
        result = session.query_table(
            "SELECT AVG(mag_g - mag_r) AS mean_gr FROM photo"
        )
        expected = float(
            (np.asarray(photo["mag_g"], dtype=np.float64)
             - np.asarray(photo["mag_r"], dtype=np.float64)).mean()
        )
        assert float(result["mean_gr"][0]) == pytest.approx(expected, rel=1e-5)

    def test_aggregate_respects_where(self, session, photo):
        result = session.query_table(
            "SELECT COUNT(objid) AS n FROM photo WHERE objtype = QUASAR"
        )
        assert int(result["n"][0]) == int((photo["objtype"] == 3).sum())

    def test_aggregate_with_spatial_filter(self, session, photo):
        from repro.geometry.shapes import circle_region

        result = session.query_table(
            "SELECT COUNT(objid) AS n FROM photo WHERE CIRCLE(40, 30, 10)"
        )
        expected = int(circle_region(40, 30, 10).contains(photo.positions_xyz()).sum())
        assert int(result["n"][0]) == expected


class TestGroupBy:
    def test_group_counts(self, session, photo):
        result = session.query_table(
            "SELECT objtype, COUNT(objid) AS n FROM photo GROUP BY objtype"
        )
        got = {int(t): int(n) for t, n in zip(result["objtype"], result["n"])}
        for code in np.unique(photo["objtype"]):
            assert got[int(code)] == int((photo["objtype"] == code).sum())

    def test_group_stats(self, session, photo):
        result = session.query_table(
            "SELECT objtype, AVG(petro_r50) AS size FROM photo GROUP BY objtype"
        )
        for objtype, size in zip(result["objtype"], result["size"]):
            mask = photo["objtype"] == objtype
            expected = float(np.asarray(photo["petro_r50"], dtype=np.float64)[mask].mean())
            assert float(size) == pytest.approx(expected, rel=1e-5)

    def test_group_key_not_selected(self, session, photo):
        result = session.query_table(
            "SELECT COUNT(objid) AS n FROM photo GROUP BY objtype"
        )
        assert len(result) == len(np.unique(photo["objtype"]))
        assert result.schema.field_names() == ["n"]

    def test_group_by_expression(self, session, photo):
        result = session.query_table(
            "SELECT FLOOR(mag_r) AS bin, COUNT(objid) AS n "
            "FROM photo GROUP BY FLOOR(mag_r) ORDER BY bin"
        )
        bins = np.floor(np.asarray(photo["mag_r"], dtype=np.float32))
        expected_bins = np.unique(bins)
        np.testing.assert_array_equal(np.asarray(result["bin"]), expected_bins)
        total = int(np.asarray(result["n"]).sum())
        assert total == len(photo)

    def test_order_by_aggregate_output(self, session):
        result = session.query_table(
            "SELECT objtype, COUNT(objid) AS n FROM photo "
            "GROUP BY objtype ORDER BY n DESC"
        )
        counts = np.asarray(result["n"])
        assert bool(np.all(np.diff(counts) <= 0))

    def test_limit_on_groups(self, session):
        result = session.query_table(
            "SELECT objtype, COUNT(objid) AS n FROM photo "
            "GROUP BY objtype ORDER BY n DESC LIMIT 1"
        )
        assert len(result) == 1


class TestHaving:
    def test_having_filters_groups(self, session, photo):
        counts = {
            int(c): int((photo["objtype"] == c).sum())
            for c in np.unique(photo["objtype"])
        }
        threshold = sorted(counts.values())[1]  # keep the largest two
        result = session.query_table(
            f"SELECT objtype, COUNT(objid) AS n FROM photo "
            f"GROUP BY objtype HAVING n >= {threshold}"
        )
        assert len(result) == sum(1 for v in counts.values() if v >= threshold)

    def test_having_all_filtered(self, session):
        # An empty bag is a well-formed empty table, never None.
        result = session.query_table(
            "SELECT objtype, COUNT(objid) AS n FROM photo "
            "GROUP BY objtype HAVING n > 99999999"
        )
        assert len(result) == 0
        assert result.schema.field_names() == ["objtype", "n"]

    def test_having_without_group_rejected(self, session):
        with pytest.raises(PlanError):
            session.query_table("SELECT objid FROM photo HAVING objid > 1")


class TestAggregatePlanning:
    def test_bare_column_with_aggregate_rejected(self, session):
        with pytest.raises(PlanError):
            session.query_table("SELECT mag_r, COUNT(objid) AS n FROM photo")

    def test_aggregate_in_arithmetic_rejected(self, session):
        with pytest.raises(PlanError):
            session.query_table("SELECT MAX(mag_r) - MIN(mag_r) AS range FROM photo")

    def test_nested_aggregate_rejected(self, session):
        with pytest.raises(PlanError):
            session.query_table("SELECT MAX(COUNT(objid)) AS m FROM photo")

    def test_select_star_group_rejected(self, session):
        with pytest.raises(PlanError):
            session.query_table("SELECT * FROM photo GROUP BY objtype")

    def test_count_arity(self, session):
        with pytest.raises(PlanError):
            session.query_table("SELECT COUNT(objid, mag_r) AS n FROM photo")

    def test_aggregates_tag_route(self, engine):
        plans = plan_selects(
            parse_query("SELECT objtype, COUNT(objid) AS n FROM photo GROUP BY objtype"),
            engine.schemas,
        )
        assert plans[0].used_tag_route
        assert plans[0].is_aggregate

    def test_aggregate_set_op(self, session, photo):
        # Aggregates compose with set operations through the objid bag...
        # but aggregation output has no objid pointer, so the engine must
        # reject it cleanly rather than crash.
        from repro.query.errors import ExecutionError

        with pytest.raises(ExecutionError):
            session.query_table(
                "(SELECT COUNT(objid) AS n FROM photo) UNION "
                "(SELECT COUNT(objid) AS n FROM photo)"
            )
