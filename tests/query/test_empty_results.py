"""Empty results are well-formed tables everywhere — the killed wart.

``QueryResult.table()`` used to return ``None`` for empty local results
because only the distributed engine threaded an output schema into its
results.  The plan's statically-derived schema
(:func:`~repro.query.optimizer.output_schema_for`) now reaches *every*
result, so an empty bag materializes as an empty
:class:`~repro.catalog.table.ObjectTable` with exactly the dtypes a
non-empty result of the same query would carry.
"""

import numpy as np

from repro.query.optimizer import output_schema_for

EMPTY_WHERE = "WHERE mag_r < -100"


class TestEmptyProjection:
    def test_simple_projection(self, session):
        table = session.query_table(f"SELECT objid, mag_r FROM photo {EMPTY_WHERE}")
        assert len(table) == 0
        assert table.schema.field_names() == ["objid", "mag_r"]

    def test_expression_projection_dtypes_match_nonempty(self, session):
        empty = session.query_table(
            f"SELECT objid, mag_g - mag_r AS gr FROM photo {EMPTY_WHERE}"
        )
        full = session.query_table(
            "SELECT objid, mag_g - mag_r AS gr FROM photo WHERE mag_r < 99"
        )
        assert len(empty) == 0 and len(full) > 0
        assert empty.data.dtype == full.data.dtype

    def test_select_star_carries_source_schema(self, session, photo):
        table = session.query_table(f"SELECT * FROM photo {EMPTY_WHERE}")
        assert len(table) == 0
        assert table.schema.field_names() == photo.schema.field_names()
        assert table.data.dtype == photo.data.dtype

    def test_order_and_limit(self, session):
        table = session.query_table(
            f"SELECT objid, mag_r FROM photo {EMPTY_WHERE} ORDER BY mag_r LIMIT 5"
        )
        assert len(table) == 0
        assert table.schema.field_names() == ["objid", "mag_r"]


class TestEmptyAggregation:
    def test_grouped_aggregate(self, session):
        empty = session.query_table(
            f"SELECT objtype, COUNT(objid) AS n FROM photo {EMPTY_WHERE} "
            "GROUP BY objtype"
        )
        full = session.query_table(
            "SELECT objtype, COUNT(objid) AS n FROM photo GROUP BY objtype"
        )
        assert len(empty) == 0 and len(full) > 0
        assert empty.schema.field_names() == ["objtype", "n"]
        assert empty.data.dtype == full.data.dtype

    def test_avg_widens_like_runtime(self, session):
        # AVG over an integer column widens to float64 at runtime; the
        # static empty schema must agree.
        empty = session.query_table(
            f"SELECT objtype, AVG(objid) AS a FROM photo {EMPTY_WHERE} "
            "GROUP BY objtype"
        )
        full = session.query_table(
            "SELECT objtype, AVG(objid) AS a FROM photo GROUP BY objtype"
        )
        assert empty.data.dtype == full.data.dtype
        assert np.issubdtype(empty.data.dtype["a"], np.floating)

    def test_having_filters_everything(self, session):
        table = session.query_table(
            "SELECT objtype, COUNT(objid) AS n FROM photo "
            "GROUP BY objtype HAVING n > 999999999"
        )
        assert len(table) == 0
        assert table.schema.field_names() == ["objtype", "n"]


class TestEmptySetOperations:
    def test_empty_intersection(self, session):
        table = session.query_table(
            "(SELECT objid FROM photo WHERE mag_r < 16) INTERSECT "
            f"(SELECT objid FROM photo {EMPTY_WHERE})"
        )
        assert len(table) == 0
        assert table.schema.field_names() == ["objid"]

    def test_empty_both_sides(self, session):
        table = session.query_table(
            f"(SELECT objid FROM photo {EMPTY_WHERE}) UNION "
            f"(SELECT objid FROM photo {EMPTY_WHERE})"
        )
        assert len(table) == 0
        assert table.schema.field_names() == ["objid"]


class TestLocalDistributedParity:
    def test_same_empty_schema(self, engine, session, photo, tags):
        # The shared helper gives both engines identical static schemas.
        from repro.query.parser import parse_query
        from repro.query.optimizer import plan_query

        for query in (
            "SELECT objid, mag_r FROM photo WHERE mag_r < -5",
            "SELECT objtype, AVG(mag_r) AS m FROM photo WHERE mag_r < -5 GROUP BY objtype",
            "SELECT * FROM photo WHERE mag_r < -5",
        ):
            plan = plan_query(parse_query(query), engine.schemas)
            schema = output_schema_for(plan, engine.schemas)
            assert schema is not None
            local = session.query_table(query)
            assert local.schema.field_names() == schema.field_names()
            assert local.data.dtype == schema.numpy_dtype()
