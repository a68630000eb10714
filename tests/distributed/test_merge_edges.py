"""Edge cases of the coordinator merge layer.

Covers the awkward corners: shards that produce nothing, LIMIT below the
batch size (early cancellation through the merge), AVG re-combination
weighting (sum/count pairs, not mean-of-means), tie handling in the
ordered k-way merge, and queries whose every shard is pruned by the HTM
cover (empty but well-formed output).
"""

import numpy as np
import pytest

from repro.catalog.table import ObjectTable
from repro.geometry.shapes import circle_region
from repro.query.optimizer import plan_query, split_plan
from repro.query.parser import parse_query
from repro.session import Archive
from repro.storage import DistributedArchive


class TestEmptyShards:
    def test_tiny_region_with_order(self, session, dsessions, assert_same_rows):
        query = (
            "SELECT objid FROM photo WHERE CIRCLE(40, 30, 0.5) ORDER BY objid"
        )
        assert_same_rows(
            session.query_table(query),
            dsessions[5].query_table(query),
            ordered=True,
        )

    def test_selective_aggregate(self, session, dsessions, assert_same_rows):
        # Only a few shards hold rows this bright; the rest contribute no
        # partials at all.
        query = (
            "SELECT objtype, COUNT(objid) AS n FROM photo "
            "WHERE mag_r < 14.5 GROUP BY objtype"
        )
        assert_same_rows(
            session.query_table(query),
            dsessions[5].query_table(query),
            ordered=True,
        )


class TestSmallLimits:
    @pytest.fixture(scope="class")
    def tiny_batches(self, archives):
        """Session forced to many small batches so LIMIT < one batch."""
        with Archive.connect(archive=archives[5], batch_rows=8) as session:
            yield session

    def test_ordered_limit_below_batch(self, session, tiny_batches):
        query = "SELECT objid, mag_r FROM photo ORDER BY mag_r, objid LIMIT 3"
        expected = session.query_table(query)
        got = tiny_batches.query_table(query)
        assert len(got) == 3
        np.testing.assert_array_equal(expected["objid"], got["objid"])

    def test_unordered_limit_below_batch(self, tiny_batches):
        got = tiny_batches.query_table(
            "SELECT objid FROM photo WHERE mag_r < 18 LIMIT 2"
        )
        assert len(got) == 2

    def test_limit_zero(self, tiny_batches):
        got = tiny_batches.query_table("SELECT objid FROM photo LIMIT 0")
        assert got is not None and len(got) == 0


class TestAvgRecombination:
    @pytest.fixture(scope="class")
    def skewed(self, photo):
        """Two sky clumps with deliberately unequal group splits.

        Clump A: 450 rows of group 1 (value 10) + 50 of group 2 (value
        20); clump B: 50 of group 1 (value 30) + 450 of group 2 (value
        40).  The balanced partitioner puts the clumps on different
        servers, so a merge that averaged per-shard means unweighted
        would report 20.0 for group 1 instead of the true 12.0.
        """
        xyz = photo.positions_xyz()
        in_a = np.nonzero(circle_region(40.0, 30.0, 60.0).contains(xyz))[0][:500]
        in_b = np.nonzero(circle_region(220.0, -30.0, 60.0).contains(xyz))[0][:500]
        assert len(in_a) == 500 and len(in_b) == 500
        data = photo.data[np.concatenate([in_a, in_b])].copy()
        data["objtype"][:450] = 1
        data["mag_r"][:450] = 10.0
        data["objtype"][450:500] = 2
        data["mag_r"][450:500] = 20.0
        data["objtype"][500:550] = 1
        data["mag_r"][500:550] = 30.0
        data["objtype"][550:] = 2
        data["mag_r"][550:] = 40.0
        table = ObjectTable(photo.schema, data)
        archive = DistributedArchive.from_table(table, depth=5, n_servers=2)
        return table, archive

    def test_avg_is_weighted_by_shard_counts(self, skewed):
        table, archive = skewed
        with Archive.connect(archive=archive) as dsession:
            result = dsession.query_table(
                "SELECT objtype, AVG(mag_r) AS m, COUNT(objid) AS n FROM photo "
                "GROUP BY objtype ORDER BY objtype"
            )
        np.testing.assert_array_equal(result["objtype"], [1, 2])
        np.testing.assert_array_equal(result["n"], [500, 500])
        np.testing.assert_allclose(result["m"], [12.0, 38.0], rtol=1e-6)

        # The naive (unweighted) mean of per-server group means is far
        # off — proving the sum/count pair actually carried the weights.
        naive = []
        for group in (1, 2):
            shard_means = []
            for server in archive.servers:
                table, _row_ids = server.store.rows()
                values = table["mag_r"][table["objtype"] == group]
                if len(values):
                    shard_means.append(np.mean(values))
            naive.append(np.mean(shard_means))
        assert abs(naive[0] - 12.0) > 0.5 or abs(naive[1] - 38.0) > 0.5


class TestOrderedMergeTies:
    TIE_QUERY = "SELECT objid, objtype FROM photo ORDER BY objtype"

    def test_tied_output_is_sorted_and_complete(self, session, dsessions):
        expected = session.query_table(self.TIE_QUERY)
        got = dsessions[5].query_table(self.TIE_QUERY)
        values = np.asarray(got["objtype"])
        assert bool(np.all(values[1:] >= values[:-1]))
        assert sorted(np.asarray(got["objid"]).tolist()) == sorted(
            np.asarray(expected["objid"]).tolist()
        )

    def test_ties_deterministic_across_runs(self, dsessions):
        first = dsessions[5].query_table(self.TIE_QUERY)
        second = dsessions[5].query_table(self.TIE_QUERY)
        np.testing.assert_array_equal(first["objid"], second["objid"])

    def test_single_shard_merge_is_stable(self, session, dsessions, assert_same_rows):
        # With one server the k-way merge must preserve the shard's
        # stable sort order exactly — positional equality with the
        # single-store engine.
        assert_same_rows(
            session.query_table(self.TIE_QUERY),
            dsessions[1].query_table(self.TIE_QUERY),
            ordered=True,
        )


class TestAllShardsPruned:
    # Two disjoint caps AND-ed: the intersection region is empty, every
    # trixel classifies OUTSIDE, and no server range intersects the cover.
    EMPTY_WHERE = "CIRCLE(0, 0, 1) AND CIRCLE(180, 0, 1)"

    def test_projection_schema_survives(self, dsessions):
        job = dsessions[5].submit(f"SELECT objid FROM photo WHERE {self.EMPTY_WHERE}")
        table = job.cursor.to_table()
        assert table is not None and len(table) == 0
        assert table.schema.field_names() == ["objid"]
        (report,) = job.reports
        assert report.servers_touched == 0
        assert len(report.pruned_server_ids) == 5

    def test_select_star_schema_survives(self, dsessions, photo):
        table = dsessions[5].query_table(
            f"SELECT * FROM photo WHERE {self.EMPTY_WHERE}"
        )
        assert len(table) == 0
        assert table.schema.field_names() == photo.schema.field_names()

    def test_aggregate_schema_survives(self, dsessions):
        table = dsessions[5].query_table(
            f"SELECT COUNT(objid) AS n FROM photo WHERE {self.EMPTY_WHERE}"
        )
        assert len(table) == 0
        assert table.schema.field_names() == ["n"]

    def test_ordered_projection_schema_survives(self, dsessions):
        table = dsessions[5].query_table(
            "SELECT objid, mag_g - mag_r AS gr FROM photo "
            f"WHERE {self.EMPTY_WHERE} ORDER BY gr LIMIT 5"
        )
        assert len(table) == 0
        assert table.schema.field_names() == ["objid", "gr"]

    def test_empty_dtypes_match_nonempty(self, dsessions):
        # A consumer must be able to concat an empty and a non-empty
        # result of the same query; that needs identical dtypes.
        for query in (
            "SELECT objtype, COUNT(objid) AS n, AVG(mag_r) AS m, "
            "SUM(mag_g) AS s FROM photo {where} GROUP BY objtype",
            "SELECT objid, mag_g - mag_r AS gr FROM photo {where}",
        ):
            full = dsessions[5].query_table(query.format(where=""))
            empty = dsessions[5].query_table(
                query.format(where=f"WHERE {self.EMPTY_WHERE}")
            )
            assert len(empty) == 0
            assert empty.data.dtype == full.data.dtype
            assert len(empty.concat(full)) == len(full)


class TestShardFailurePropagation:
    """A failing server must fail the query, never shrink the answer."""

    class _PoisonRows:
        """A container's overflow rows: planning reads the index, not
        them, and a scan fails when it reaches them."""

        def __len__(self):
            raise RuntimeError("simulated corrupt container")

    @pytest.fixture()
    def degraded(self, make_archive):
        archive = make_archive(5)
        store = archive.servers[2].store
        store.snapshot.overflow[store.occupied_ids()[0]] = self._PoisonRows()
        with Archive.connect(archive=archive) as session:
            yield session

    def test_stream_merge_raises(self, degraded):
        from repro.query.errors import ExecutionError

        with pytest.raises(ExecutionError):
            degraded.query_table("SELECT objid FROM photo", allow_tag_route=False)

    def test_aggregate_merge_raises(self, degraded):
        from repro.query.errors import ExecutionError

        with pytest.raises(ExecutionError):
            degraded.query_table(
                "SELECT COUNT(objid) AS n FROM photo", allow_tag_route=False
            )

    def test_ordered_merge_raises(self, degraded):
        from repro.query.errors import ExecutionError

        with pytest.raises(ExecutionError):
            degraded.query_table(
                "SELECT objid FROM photo ORDER BY objid", allow_tag_route=False
            )

    def test_failed_result_keeps_raising(self, degraded):
        # Re-draining a failed result must re-raise, never masquerade as
        # an empty result.
        from repro.query.errors import ExecutionError

        result = degraded.execute("SELECT objid FROM photo", allow_tag_route=False)
        with pytest.raises(ExecutionError):
            list(result)
        with pytest.raises(ExecutionError):
            result.to_table()


class TestSplitPlanUnits:
    def _plan(self, engine, text):
        return plan_query(parse_query(text), engine.schemas)

    def test_avg_splits_into_sum_and_count(self, engine):
        plan = self._plan(
            engine, "SELECT objtype, AVG(mag_r) AS m FROM photo GROUP BY objtype"
        )
        sharded = split_plan(plan)
        shard_names = [(n, k) for n, k, _fn in sharded.shard.aggregate_specs]
        assert shard_names == [("m__sum", "SUM"), ("m__count", "COUNT")]
        merge_names = [(n, k) for n, k, _fn in sharded.merge.reaggregate_specs]
        assert merge_names == [("m__sum", "SUM"), ("m__count", "SUM")]
        assert [n for n, _h, _fn in sharded.merge.final_projection] == [
            "objtype",
            "m",
        ]

    def test_count_recombines_by_sum(self, engine):
        plan = self._plan(
            engine, "SELECT objtype, COUNT(objid) AS n FROM photo GROUP BY objtype"
        )
        sharded = split_plan(plan)
        assert sharded.shard.aggregate_specs[0][1] == "COUNT"
        assert sharded.merge.reaggregate_specs[0][1] == "SUM"

    def test_hidden_group_key_travels(self, engine):
        plan = self._plan(
            engine, "SELECT COUNT(objid) AS n FROM photo GROUP BY objtype"
        )
        sharded = split_plan(plan)
        assert [n for n, _fn in sharded.shard.group_specs] == ["__group0"]
        assert [n for n, _fn in sharded.merge.group_specs] == [None]
        assert "__group0" in sharded.shard.output_order
        assert [n for n, _h, _fn in sharded.merge.final_projection] == ["n"]

    def test_ordered_split_pushes_sort_and_limit(self, engine):
        plan = self._plan(
            engine,
            "SELECT objid, mag_r FROM photo ORDER BY mag_r LIMIT 10",
        )
        sharded = split_plan(plan)
        assert sharded.merge.kind == "ordered"
        assert sharded.shard.limit == 10
        assert sharded.shard.order_key_fns
        assert sharded.shard.projection == []
        assert len(sharded.merge.projection) == 2

    def test_plain_split_pushes_projection(self, engine):
        plan = self._plan(engine, "SELECT objid FROM photo WHERE mag_r < 16")
        sharded = split_plan(plan)
        assert sharded.merge.kind == "stream"
        assert sharded.shard.projection == plan.projection
        assert sharded.merge.projection == []
