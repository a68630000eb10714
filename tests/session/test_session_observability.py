"""Session-level observability: traces, EXPLAIN ANALYZE, metric surfaces.

The unified observability layer threads a trace id through every
submission, derives per-node spans from NodeStats timestamps, and
shows ``io_report`` as a view of the registry-style job snapshot —
these tests pin that the surfaces agree with each other and with the
job's own timings.
"""

import pytest

from repro.obs import derive_rates, job_snapshot, merge_metrics
from repro.session import Archive


QUERY = "SELECT objid, mag_r FROM photo WHERE mag_r < 15"


def span_names(trace):
    return [span.name for span in trace.spans]


class TestJobTrace:
    def test_trace_covers_every_phase(self, local_session):
        job = local_session.submit(QUERY)
        job.cursor.fetchall()
        job.join()
        trace = job.trace()
        names = span_names(trace)
        for phase in ("query", "parse", "plan", "execute"):
            assert phase in names
        assert any(name.startswith("node:") for name in names)

    def test_trace_tree_is_rooted_and_orphan_free(self, local_session):
        job = local_session.submit(QUERY)
        job.cursor.fetchall()
        job.join()
        trace = job.trace()
        roots = trace.roots()
        assert [span.name for span in roots] == ["query"]
        ids = {span.span_id for span in trace.spans}
        assert all(
            span.parent_id in ids
            for span in trace.spans
            if span.parent_id is not None
        )

    def test_execute_span_matches_time_to_completion(self, local_session):
        job = local_session.submit(QUERY)
        job.cursor.fetchall()
        job.join()
        execute = job.trace().first("execute")
        assert execute.duration() == pytest.approx(
            job.time_to_completion, rel=0.10
        )

    def test_batch_job_records_queue_wait(self, local_session):
        job = local_session.submit(QUERY, query_class="batch")
        job.cursor.fetchall()
        job.join()
        queue = job.trace().first("queue")
        assert queue is not None
        assert queue.duration() is not None and queue.duration() >= 0.0

    def test_cursor_delegates_trace(self, local_session):
        cursor = local_session.execute(QUERY)
        cursor.fetchall()
        assert cursor.trace_id == cursor._job.trace_id
        assert cursor.trace().trace_id == cursor.trace_id

    def test_distinct_jobs_get_distinct_trace_ids(self, local_session):
        first = local_session.submit(QUERY)
        second = local_session.submit(QUERY)
        for job in (first, second):
            job.cursor.fetchall()
            job.join()
        assert first.trace_id != second.trace_id

    def test_node_spans_carry_io_attrs(self, local_session):
        job = local_session.submit(QUERY)
        job.cursor.fetchall()
        job.join()
        trace = job.trace()
        scans = [s for s in trace.spans if s.name == "node:scan"]
        assert scans
        total_read = sum(s.attrs.get("containers_read", 0) for s in scans)
        assert total_read == job.metrics()["job.containers_read"]


class TestParseOnce:
    @pytest.fixture()
    def parses(self, monkeypatch):
        """Counts every run of the query parser, whoever calls it."""
        from repro.query import parser

        calls = []
        real = parser._Parser.parse_query

        def counting(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(parser._Parser, "parse_query", counting)
        return calls

    @pytest.mark.parametrize("fixture", ["local_session", "dist_session"])
    def test_a_submission_parses_its_text_once(self, request, parses, fixture):
        session = request.getfixturevalue(fixture)
        job = session.submit(QUERY)
        job.cursor.fetchall()
        assert len(parses) == 1
        parse_span = job.trace().first("parse")
        assert parse_span.duration() > 0.0

    def test_syntax_error_surfaces_from_submit(self, local_session, parses):
        from repro.query.errors import ParseError

        with pytest.raises(ParseError, match="at position"):
            local_session.submit("SELEKT objid FROM photo")
        assert len(parses) == 1


class TestExplainAnalyze:
    def test_measured_detail_on_every_executed_node(self, local_session):
        tree = local_session.explain_analyze(f"{QUERY} ORDER BY mag_r")
        seen = []

        def walk(node):
            seen.append(node)
            for child in node.children:
                walk(child)

        walk(tree)
        assert len(seen) >= 2  # at least scan + sort
        for node in seen:
            assert "rows" in node.detail
            assert node.detail["time_ms"] is None or node.detail["time_ms"] >= 0.0

    def test_prefix_is_accepted_and_stripped(self, local_session):
        plain = local_session.explain_analyze(QUERY)
        prefixed = local_session.explain_analyze(f"EXPLAIN ANALYZE {QUERY}")
        assert prefixed.kind == plain.kind

    def test_rows_match_the_real_result(self, local_session):
        expected = local_session.query_table(QUERY)
        tree = local_session.explain_analyze(QUERY)
        assert tree.detail["rows"] == (0 if expected is None else len(expected))


class TestMetricSurfaces:
    def test_job_snapshot_names_and_values(self, local_session):
        job = local_session.submit(QUERY)
        job.cursor.fetchall()
        job.join()
        snap = job.metrics()
        assert snap["job.rows"] == job.rows
        assert snap["job.containers_read"] == sum(
            stats.containers_read for stats in job.node_stats().values()
        )
        assert snap["sweep.sharing_factor"] >= 1.0

    def test_io_report_key_parity_with_snapshot(self, local_session):
        """The report is a *view of* the registry-style snapshot —
        same numbers, pinned key set."""
        job = local_session.submit(QUERY)
        job.cursor.fetchall()
        job.join()
        report = job.io_report()
        assert set(report) == {
            "containers_read",
            "containers_from_pool",
            "containers_skipped",
            "sweep_sharing_factor",
            "buffer_pool_hit_rate",
            "cache",
        }
        snap = job_snapshot(job)
        assert report["containers_read"] == snap["job.containers_read"]
        assert report["sweep_sharing_factor"] == snap.get("sweep.sharing_factor")
        assert report["buffer_pool_hit_rate"] == snap.get("buffer_pool.hit_rate")

    def test_session_metrics_count_submissions(self, local_session):
        before = local_session.metrics().get("session.queries_submitted", 0)
        local_session.execute(QUERY).fetchall()
        after = local_session.metrics()
        # the registry is process-wide, so assert monotonic growth, not
        # exact counts
        assert after["session.queries_submitted"] >= before + 1
        assert after["query.completion_ms"]["count"] >= 1


class TestCacheCounterMerge:
    """Regression for the multi-endpoint cache-counter overwrite: one
    endpoint's counters used to clobber the previous endpoint's.  The
    rule is the registry's own merge, shared by everything that
    combines statistics."""

    def test_numeric_counters_sum_across_endpoints(self):
        merged = merge_metrics(
            {},
            {"cache.hit": True, "cache.hits": 3, "cache.misses": 1,
             "cache.bytes_served": 100},
        )
        merged = merge_metrics(
            merged,
            {"cache.hit": False, "cache.hits": 1, "cache.misses": 3,
             "cache.bytes_served": 50},
        )
        assert merged["cache.hits"] == 4
        assert merged["cache.misses"] == 4
        assert merged["cache.bytes_served"] == 150

    def test_hit_flag_ors_and_rate_recomputes(self):
        merged = merge_metrics(
            {}, {"cache.hit": False, "cache.hits": 0, "cache.misses": 4,
                 "cache.hit_rate": 0.0}
        )
        merged = merge_metrics(
            merged, {"cache.hit": True, "cache.hits": 4, "cache.misses": 0,
                     "cache.hit_rate": 1.0}
        )
        assert merged["cache.hit"] is True
        assert merge_metrics(merged, {"cache.hit": False})["cache.hit"] is True
        # recomputed from the summed counters — NOT an average of rates
        assert derive_rates(merged)["cache.hit_rate"] == pytest.approx(0.5)
