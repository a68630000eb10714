"""Differential tests: distributed == single-store, across partitionings.

A corpus of representative queries (spatial, tag-routed, GROUP BY /
HAVING, ORDER BY + LIMIT, set operations) runs through a session over
the single-store :class:`QueryEngine` and sessions over the
scatter-gather :class:`DistributedQueryEngine` with 1-, 2-, and 5-server
partitions — and again after ``add_servers`` repartitioning — asserting
row-for-row equality.
"""

import numpy as np
import pytest

from repro.query.optimizer import split_plan
from repro.query.parser import parse_query
from repro.query.physical import plan_selects
from repro.session import Archive

SERVER_COUNTS = (1, 2, 5)

# (query, mode): mode 'rows' compares canonically sorted rows, 'ordered'
# compares positionally (deterministic output order on both sides),
# 'count' checks cardinality only (LIMIT without ORDER BY picks
# implementation-defined rows).
CORPUS = [
    ("SELECT objid FROM photo WHERE mag_r < 16", "rows"),
    ("SELECT * FROM photo WHERE mag_r < 15", "rows"),
    ("SELECT objid FROM photo WHERE CIRCLE(40, 30, 5)", "rows"),
    ("SELECT objid FROM photo WHERE CIRCLE(40, 30, 10) AND objtype = GALAXY", "rows"),
    ("SELECT objid, mag_g - mag_r AS gr FROM photo WHERE mag_r < 16.5", "rows"),
    ("SELECT objid FROM photo WHERE RECT(20, 60, 10, 40) AND mag_g < 18", "rows"),
    ("SELECT objid FROM photo WHERE LATBAND(-10, 10)", "rows"),
    ("SELECT objid FROM photo WHERE LONWEDGE(350, 5)", "rows"),
    ("SELECT objid FROM photo WHERE POLYGON(0, 0, 10, 0, 5, 8)", "rows"),
    ("SELECT objid, mag_r FROM photo WHERE mag_r < 17 ORDER BY mag_r, objid", "ordered"),
    ("SELECT objid, mag_r FROM photo ORDER BY mag_r DESC, objid LIMIT 25", "ordered"),
    ("SELECT objid FROM photo WHERE CIRCLE(40, 30, 15) ORDER BY objid LIMIT 10", "ordered"),
    (
        "SELECT objid, DIST_ARCMIN(40, 30) AS d FROM photo "
        "WHERE CIRCLE(40, 30, 3) ORDER BY d, objid",
        "ordered",
    ),
    ("SELECT objid FROM photo LIMIT 7", "count"),
    ("SELECT objid, mag_r FROM photo WHERE mag_r < 18", "rows"),
    ("SELECT objtype, COUNT(objid) AS n FROM photo GROUP BY objtype", "ordered"),
    (
        "SELECT objtype, AVG(mag_r) AS m, COUNT(objid) AS n FROM photo "
        "WHERE mag_r < 19 GROUP BY objtype",
        "ordered",
    ),
    # AVG over an *integer* column must widen to float64, not truncate.
    ("SELECT objtype, AVG(objid) AS a FROM photo GROUP BY objtype", "ordered"),
    (
        "SELECT objtype, MIN(mag_r) AS lo, MAX(mag_r) AS hi, SUM(mag_g) AS s "
        "FROM photo GROUP BY objtype",
        "ordered",
    ),
    (
        "SELECT objtype, COUNT(objid) AS n FROM photo "
        "GROUP BY objtype HAVING n > 100 ORDER BY n DESC",
        "ordered",
    ),
    ("SELECT COUNT(objid) AS n FROM photo GROUP BY objtype", "ordered"),
    ("SELECT COUNT(objid) AS n FROM photo WHERE CIRCLE(40, 30, 8)", "ordered"),
    (
        "SELECT FLOOR(mag_r) AS bin, COUNT(objid) AS n FROM photo "
        "WHERE mag_r < 20 GROUP BY FLOOR(mag_r) ORDER BY bin",
        "ordered",
    ),
    (
        "(SELECT objid FROM photo WHERE mag_r < 16) UNION "
        "(SELECT objid FROM photo WHERE mag_u < 17)",
        "rows",
    ),
    (
        "(SELECT objid FROM photo WHERE mag_r < 18) INTERSECT "
        "(SELECT objid FROM photo WHERE objtype = QUASAR)",
        "rows",
    ),
    (
        "((SELECT objid FROM photo WHERE mag_r < 16) UNION "
        "(SELECT objid FROM photo WHERE mag_u < 17)) EXCEPT "
        "(SELECT objid FROM photo WHERE objtype = GALAXY)",
        "rows",
    ),
]


def _check(session, dsession, query, mode, assert_same_rows):
    expected = session.query_table(query)
    got = dsession.query_table(query)
    if mode == "count":
        n_expected = 0 if expected is None else len(expected)
        n_got = 0 if got is None else len(got)
        assert n_expected == n_got
        return
    assert_same_rows(expected, got, ordered=(mode == "ordered"))


@pytest.mark.parametrize("n_servers", SERVER_COUNTS)
@pytest.mark.parametrize("query,mode", CORPUS)
def test_distributed_matches_single_store(
    session, dsessions, assert_same_rows, n_servers, query, mode
):
    _check(session, dsessions[n_servers], query, mode, assert_same_rows)


class TestRepartitioning:
    @pytest.fixture(scope="class")
    def scaled(self, make_archive):
        """An archive scaled 2 -> 5 servers after loading (data moved)."""
        archive = make_archive(2)
        moved = archive.add_servers(3)
        assert moved > 0
        with Archive.connect(archive=archive) as session:
            yield session

    @pytest.mark.parametrize("query,mode", CORPUS)
    def test_corpus_after_scale_out(
        self, session, scaled, assert_same_rows, query, mode
    ):
        _check(session, scaled, query, mode, assert_same_rows)

    def test_tag_containers_moved_with_photo(self, scaled):
        archive = scaled.executor.archive
        for server in archive.servers:
            for store in server.stores().values():
                for htm_id in store.occupied_ids():
                    assert (
                        archive.partition_map.server_for(htm_id)
                        == server.server_id
                    )

    def test_reattaching_a_source_is_rejected(self, scaled, tags):
        # A silent second attach would duplicate every tag row.
        with pytest.raises(ValueError):
            scaled.executor.archive.attach_source("tag", tags)


def sharded_plans(dengine, text):
    """The split plan of every SELECT, without building a tree."""
    plans = plan_selects(parse_query(text), dengine.schemas)
    return [split_plan(plan) for plan in plans]


class TestDistributedPlanning:
    def test_tag_routing_still_applies(self, dengines):
        sharded = sharded_plans(
            dengines[5], "SELECT objid, mag_r FROM photo WHERE mag_r < 18"
        )
        assert sharded[0].base.used_tag_route
        assert sharded[0].shard.routed_source == "tag"

    def test_spatial_split_keeps_region_on_shard(self, dengines):
        sharded = sharded_plans(
            dengines[5], "SELECT objid FROM photo WHERE CIRCLE(40, 30, 5)"
        )
        assert sharded[0].shard.region is not None
        assert sharded[0].kind == "stream"


class TestStreaming:
    def test_first_batch_before_completion(self, dsessions):
        result = dsessions[5].execute("SELECT objid FROM photo")
        batches = list(result)
        assert len(batches) > 1
        assert result.time_to_first_row < result.time_to_completion

    def test_cancel_does_not_deadlock(self, dsessions):
        result = dsessions[5].execute("SELECT objid FROM photo")
        iterator = iter(result)
        next(iterator)
        result.cancel()

    def test_report_counts_servers(self, dsessions):
        job = dsessions[5].submit("SELECT objid FROM photo WHERE CIRCLE(40, 30, 1)")
        job.cursor.to_table()
        (report,) = job.reports
        assert report.servers_total == 5
        assert 1 <= report.servers_touched <= 5
        touched = set(report.touched_server_ids)
        pruned = set(report.pruned_server_ids)
        assert touched.isdisjoint(pruned)
        assert len(touched) + len(pruned) == 5

    def test_per_server_hosting(self, archives, session):
        # A session over one server's stores answers its shard; the
        # union of the locally-hosted answers is the global answer.
        query = "SELECT objid FROM photo WHERE mag_r < 16"
        pieces = []
        for server in archives[5].servers:
            with Archive.connect(stores=server.stores()) as local:
                pieces.append(np.asarray(local.query_table(query)["objid"]))
        got = sorted(np.concatenate(pieces).tolist())
        expected = sorted(np.asarray(session.query_table(query)["objid"]).tolist())
        assert got == expected
