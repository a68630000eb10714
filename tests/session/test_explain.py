"""Structured explain: one plan-tree representation for every backend."""

import pytest

from repro.obs.metrics import registry
from repro.session import PlanTree


class TestLocalPlans:
    def test_order_limit_chain(self, local_session):
        tree = local_session.explain(
            "SELECT objid, mag_r FROM photo WHERE mag_r < 17 "
            "ORDER BY mag_r LIMIT 5"
        )
        kinds = [node.kind for node in tree.walk()]
        # ORDER BY ... LIMIT fuses into one streaming top-k node; a
        # select list of bare columns is the scan's own output.
        assert kinds == ["topk", "scan"]
        assert tree.find("topk")[0].detail["limit"] == 5

    def test_computed_select_list_projects(self, local_session):
        tree = local_session.explain(
            "SELECT objid, mag_r AS m FROM photo WHERE mag_r < 17 "
            "ORDER BY mag_r LIMIT 5"
        )
        assert [node.kind for node in tree.walk()] == ["project", "topk", "scan"]
        assert tree.find("project")[0].detail["columns"] == ["objid", "m"]

    def test_order_without_limit_keeps_sort(self, local_session):
        tree = local_session.explain(
            "SELECT objid, mag_r FROM photo WHERE mag_r < 17 ORDER BY mag_r"
        )
        kinds = [node.kind for node in tree.walk()]
        assert kinds == ["sort", "scan"]

    def test_tag_routing_surfaces(self, local_session):
        tree = local_session.explain("SELECT objid, mag_r FROM photo WHERE mag_r < 18")
        scan = tree.find("scan")[0]
        assert scan.detail["source"] == "photo"
        assert scan.detail.get("routed") == "tag"
        assert scan.detail.get("tag_route") is True

    def test_aggregate_nodes(self, local_session):
        tree = local_session.explain(
            "SELECT objtype, COUNT(objid) AS n FROM photo "
            "GROUP BY objtype HAVING n > 10 ORDER BY n DESC"
        )
        agg = tree.find("aggregate")[0]
        assert agg.detail["groups"] == ["objtype"]
        assert agg.detail["aggregates"] == ["COUNT->n"]
        assert tree.find("filter")  # HAVING
        assert tree.find("sort")

    def test_set_operation_tree(self, local_session):
        # Two sources: a UNION over one source would fuse into one scan.
        tree = local_session.explain(
            "(SELECT objid FROM photo WHERE mag_r < 16) UNION "
            "(SELECT objid FROM tag WHERE mag_u < 17)"
        )
        assert tree.kind == "union"
        assert len(tree.children) == 2
        assert len(tree.find("scan")) == 2


class TestDistributedPlans:
    def test_fanout_and_server_labels(self, dist_session):
        tree = dist_session.explain("SELECT objid FROM photo WHERE mag_r < 17")
        (root,) = [n for n in tree.walk() if "servers" in n.detail]
        assert set(root.detail["servers"]) <= {0, 1, 2}
        servers = {
            node.detail["server"]
            for node in tree.walk()
            if "server" in node.detail
        }
        assert servers == set(root.detail["servers"])

    def test_spatial_pruning_recorded(self, dist_session):
        query = "SELECT objid FROM photo WHERE CIRCLE(40, 30, 2)"
        job = dist_session.submit(query)
        job.cursor.to_table()  # drain so no background threads linger
        (report,) = job.reports
        tree = dist_session.explain(query)
        (annotated,) = [n for n in tree.walk() if "servers" in n.detail]
        assert annotated.detail["servers"] == report.touched_server_ids
        if report.pruned_server_ids:
            assert annotated.detail["pruned"] == report.pruned_server_ids

    def test_ordered_merge_strategy(self, dist_session):
        tree = dist_session.explain(
            "SELECT objid, mag_r FROM photo ORDER BY mag_r LIMIT 5"
        )
        merge = tree.find("merge_sort")
        assert merge and merge[0].detail["keys"] == 1
        # each shard pre-selects its own top-k (fused sort+trim)
        assert len(tree.find("topk")) == merge[0].detail["fanout"]

    def test_aggregate_merge_strategy(self, dist_session):
        tree = dist_session.explain(
            "SELECT objtype, AVG(mag_r) AS m FROM photo GROUP BY objtype"
        )
        assert tree.find("exchange")
        # partial aggregation on every shard + re-aggregation at the top
        aggs = tree.find("aggregate")
        assert len(aggs) >= 2


class TestExplainDoesNotExecute:
    def test_no_job_no_admission(self, dist_session):
        submitted = registry().counter("session.queries_submitted")
        jobs_before = dist_session.jobs
        submitted_before = submitted.value
        tree = dist_session.explain("SELECT objid FROM photo WHERE mag_r < 17")
        assert isinstance(tree, PlanTree)
        assert dist_session.jobs == jobs_before
        assert submitted.value == submitted_before

    def test_rendering_is_indented(self, local_session):
        text = local_session.explain(
            "SELECT objid, mag_r AS m FROM photo WHERE mag_r < 17 ORDER BY mag_r"
        ).render()
        lines = text.splitlines()
        assert len(lines) >= 3
        assert lines[1].startswith("  ")
