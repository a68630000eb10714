"""End-to-end tests for repro.query.engine, .optimizer, and .qet.

Each query runs through a session — parse -> plan -> QET -> threads —
and the result is compared against a direct numpy evaluation on the
source table.
"""

import numpy as np
import pytest

from repro.catalog.schema import Field, Schema
from repro.geometry.shapes import circle_region
from repro.query.engine import QueryEngine
from repro.query.errors import ExecutionError, PlanError, QueryError
from repro.query.parser import parse_query
from repro.query.physical import plan_selects


def brute(photo, mask):
    return set(np.asarray(photo["objid"])[mask].tolist())


def explain(engine, text, allow_tag_route=True):
    """The optimizer's plan of every SELECT, without building a tree."""
    return plan_selects(parse_query(text), engine.schemas, allow_tag_route)


def result_ids(table):
    if table is None:
        return set()
    return set(np.asarray(table["objid"]).tolist())


class TestSimpleSelects:
    def test_attribute_filter(self, session, photo):
        result = session.query_table("SELECT objid FROM photo WHERE mag_r < 16")
        assert result_ids(result) == brute(photo, np.asarray(photo["mag_r"]) < 16)

    def test_spatial_filter(self, session, photo):
        result = session.query_table(
            "SELECT objid FROM photo WHERE CIRCLE(40, 30, 5)"
        )
        mask = circle_region(40, 30, 5).contains(photo.positions_xyz())
        assert result_ids(result) == brute(photo, mask)

    def test_combined_filter(self, session, photo):
        result = session.query_table(
            "SELECT objid FROM photo WHERE CIRCLE(40, 30, 10) AND objtype = GALAXY"
        )
        mask = circle_region(40, 30, 10).contains(photo.positions_xyz()) & (
            np.asarray(photo["objtype"]) == 2
        )
        assert result_ids(result) == brute(photo, mask)

    def test_select_star_keeps_schema(self, session, photo):
        result = session.query_table("SELECT * FROM photo WHERE mag_r < 15")
        if result is not None:
            assert result.schema.field_names() == photo.schema.field_names()

    def test_computed_columns(self, session, photo):
        result = session.query_table(
            "SELECT objid, mag_g - mag_r AS gr FROM photo WHERE mag_r < 16"
        )
        assert result is not None
        assert result.schema.field_names() == ["objid", "gr"]
        lookup = {int(o): k for k, o in enumerate(photo["objid"])}
        for row in result.data:
            source_row = lookup[int(row["objid"])]
            expected = float(photo["mag_g"][source_row]) - float(
                photo["mag_r"][source_row]
            )
            assert float(row["gr"]) == pytest.approx(expected, rel=1e-6)

    def test_empty_result(self, session):
        # Empty bags are well-formed empty tables with the plan's output
        # schema, never None.
        result = session.query_table("SELECT objid FROM photo WHERE mag_r < 0")
        assert len(result) == 0
        assert result.schema.field_names() == ["objid"]


class TestOrderLimit:
    def test_order_by(self, session, photo):
        result = session.query_table(
            "SELECT objid, mag_r FROM photo WHERE mag_r < 17 ORDER BY mag_r"
        )
        values = np.asarray(result["mag_r"])
        assert bool(np.all(np.diff(values) >= 0))

    def test_order_desc(self, session):
        result = session.query_table(
            "SELECT objid, mag_r FROM photo WHERE mag_r < 17 ORDER BY mag_r DESC"
        )
        values = np.asarray(result["mag_r"])
        assert bool(np.all(np.diff(values) <= 0))

    def test_order_by_alias(self, session):
        result = session.query_table(
            "SELECT objid, mag_g - mag_r AS gr FROM photo WHERE mag_r < 17 ORDER BY gr"
        )
        values = np.asarray(result["gr"])
        assert bool(np.all(np.diff(values) >= -1e-6))

    def test_limit(self, session, photo):
        result = session.query_table("SELECT objid FROM photo LIMIT 7")
        assert len(result) == 7

    def test_order_limit_gives_global_top(self, session, photo):
        result = session.query_table(
            "SELECT objid, mag_r FROM photo ORDER BY mag_r LIMIT 3"
        )
        top3 = np.sort(np.asarray(photo["mag_r"]))[:3]
        np.testing.assert_allclose(np.sort(result["mag_r"]), top3, rtol=1e-6)

    def test_limit_zero(self, session):
        result = session.query_table("SELECT objid FROM photo LIMIT 0")
        assert len(result) == 0
        assert result.schema.field_names() == ["objid"]


class TestSetOperations:
    def test_union_dedups(self, session, photo):
        result = session.query_table(
            "(SELECT objid FROM photo WHERE mag_r < 16) UNION "
            "(SELECT objid FROM photo WHERE mag_r < 17)"
        )
        assert result_ids(result) == brute(photo, np.asarray(photo["mag_r"]) < 17)
        # No duplicate pointers in the output bag.
        ids = np.asarray(result["objid"])
        assert len(ids) == len(np.unique(ids))

    def test_union_of_overlapping_sides(self, session, photo):
        result = session.query_table(
            "(SELECT objid, mag_r FROM photo WHERE mag_r < 18) UNION "
            "(SELECT objid, mag_r FROM photo WHERE mag_g < 19)"
        )
        r = np.asarray(photo["mag_r"])
        g = np.asarray(photo["mag_g"])
        assert (r < 18).sum() and ((r < 18) & (g < 19)).sum()
        assert result_ids(result) == brute(photo, (r < 18) | (g < 19))
        ids = np.asarray(result["objid"])
        assert len(ids) == len(np.unique(ids))
        # Each row is its object's own, whichever side delivered it.
        by_id = dict(zip(np.asarray(photo["objid"]).tolist(), r.tolist()))
        assert np.asarray(result["mag_r"]).tolist() == [by_id[i] for i in ids.tolist()]

    def test_union_of_two_sources(self, session, photo):
        result = session.query_table(
            "(SELECT objid FROM photo WHERE mag_r < 17) UNION "
            "(SELECT objid FROM tag WHERE mag_g < 18)"
        )
        r = np.asarray(photo["mag_r"])
        g = np.asarray(photo["mag_g"])
        assert result_ids(result) == brute(photo, (r < 17) | (g < 18))
        ids = np.asarray(result["objid"])
        assert len(ids) == len(np.unique(ids))

    def test_intersect(self, session, photo):
        result = session.query_table(
            "(SELECT objid FROM photo WHERE mag_r < 18) INTERSECT "
            "(SELECT objid FROM photo WHERE objtype = QUASAR)"
        )
        expected = brute(
            photo,
            (np.asarray(photo["mag_r"]) < 18) & (np.asarray(photo["objtype"]) == 3),
        )
        assert result_ids(result) == expected

    def test_except(self, session, photo):
        result = session.query_table(
            "(SELECT objid FROM photo WHERE mag_r < 16) EXCEPT "
            "(SELECT objid FROM photo WHERE objtype = STAR)"
        )
        expected = brute(
            photo,
            (np.asarray(photo["mag_r"]) < 16) & (np.asarray(photo["objtype"]) != 1),
        )
        assert result_ids(result) == expected

    def test_three_way_chain(self, session, photo):
        result = session.query_table(
            "((SELECT objid FROM photo WHERE mag_r < 16) UNION "
            "(SELECT objid FROM photo WHERE mag_u < 17)) EXCEPT "
            "(SELECT objid FROM photo WHERE objtype = GALAXY)"
        )
        r = np.asarray(photo["mag_r"])
        u = np.asarray(photo["mag_u"])
        t = np.asarray(photo["objtype"])
        expected = brute(photo, ((r < 16) | (u < 17)) & (t != 2))
        assert result_ids(result) == expected


class TestTagRouting:
    def test_popular_query_routes_to_tag(self, engine):
        plans = explain(engine, "SELECT objid, mag_r FROM photo WHERE mag_r < 18")
        assert plans[0].used_tag_route
        assert plans[0].routed_source == "tag"

    def test_unpopular_column_stays_on_photo(self, engine):
        plans = explain(engine, "SELECT objid FROM photo WHERE mag_err_r < 0.1")
        assert not plans[0].used_tag_route
        assert plans[0].routed_source == "photo"

    def test_routing_can_be_disabled(self, engine):
        plans = explain(
            engine, "SELECT objid FROM photo WHERE mag_r < 18", allow_tag_route=False
        )
        assert not plans[0].used_tag_route

    def test_routed_and_unrouted_agree(self, session):
        query = "SELECT objid FROM photo WHERE mag_r < 17 AND CIRCLE(40, 30, 20)"
        via_tag = session.query_table(query, allow_tag_route=True)
        via_full = session.query_table(query, allow_tag_route=False)
        assert result_ids(via_tag) == result_ids(via_full)

    def test_spatial_flag(self, engine):
        plans = explain(engine, "SELECT objid FROM photo WHERE CIRCLE(1, 2, 3)")
        assert plans[0].used_spatial_index
        plans = explain(engine, "SELECT objid FROM photo WHERE mag_r < 1")
        assert not plans[0].used_spatial_index


class TestStreaming:
    def test_first_row_before_completion(self, session):
        result = session.execute("SELECT objid FROM photo")
        batches = list(result)
        assert len(batches) > 1
        assert result.time_to_first_row < result.time_to_completion

    def test_cancel_stops_early(self, session):
        result = session.execute("SELECT objid FROM photo")
        iterator = iter(result)
        next(iterator)
        result.cancel()  # must not deadlock or raise

    def test_node_stats_populated(self, session):
        result = session.execute("SELECT objid FROM photo WHERE mag_r < 18")
        result.to_table()
        stats = result.node_stats()
        assert any(s.rows_out > 0 for s in stats.values())


class TestErrors:
    def test_unknown_source(self, session):
        with pytest.raises(PlanError):
            session.query_table("SELECT objid FROM nonexistent")

    def test_unknown_column(self, session):
        with pytest.raises(PlanError):
            session.query_table("SELECT bogus FROM photo")

    def test_tag_cannot_serve_full_columns(self, session):
        # Explicit tag source + full-only column must fail to plan.
        with pytest.raises(PlanError):
            session.query_table("SELECT mag_err_r FROM tag")

    def test_execution_error_propagates(self, session):
        # Division by a zero-valued column type error path: use an
        # unknown function to trigger a plan-time error instead (runtime
        # errors need an engine-level fault; covered by qet tests).
        with pytest.raises(QueryError):
            session.query_table("SELECT FROB(objid) FROM photo")

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT objid FROM t WHERE CIRCLE(10, 10, 1)",
            "SELECT objid, DIST_ARCMIN(10, 10) AS d FROM t",
        ],
    )
    def test_positions_a_table_lacks_fail_to_plan(self, text):
        # A table without cx, cy, cz (a MyDB result, say) cannot serve a
        # spatial term: the plan names the columns, execution never starts.
        t = Schema("t", [Field("objid", "i8"), Field("mag_r", "f4")])
        with pytest.raises(PlanError, match=r"\['cx', 'cy', 'cz'\]"):
            plan_selects(parse_query(text), {"t": t})

    def test_engine_requires_stores(self):
        with pytest.raises(ValueError):
            QueryEngine({})

    def test_set_op_needs_objid(self, session):
        with pytest.raises(ExecutionError):
            session.query_table(
                "(SELECT mag_r FROM photo WHERE mag_r < 15) UNION "
                "(SELECT mag_r FROM photo WHERE mag_r < 15)"
            )
