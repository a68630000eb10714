"""Observability across the wire: merged traces, summed telemetry, stats op.

A 3-way partitioning of the shared catalog runs behind three in-process
archive servers.  One client submission must yield a *single* merged
span tree — client parse/plan/queue/per-node spans plus each server's
grafted execution spans — telemetry that sums per-endpoint truths
instead of overwriting them, and a ``stats`` wire op exposing each
server's registry snapshot.
"""

import pytest

from repro.net import ArchiveServer
from repro.session import Archive
from repro.storage import DistributedArchive

QUERY = "SELECT objid, mag_r FROM photo WHERE mag_r < 17"


@pytest.fixture(scope="module")
def partitioned_archive(photo, tags):
    """A 3-server partitioning of the shared catalog (read-only)."""
    archive = DistributedArchive.from_table(photo, depth=5, n_servers=3)
    archive.attach_source("tag", tags)
    return archive


@pytest.fixture()
def shard_servers(partitioned_archive):
    """Fresh cache-enabled servers per test, so counter assertions see
    only this test's traffic."""
    servers = [
        ArchiveServer(stores=node.stores(), cache=True).start()
        for node in partitioned_archive.servers
    ]
    yield servers
    for server in servers:
        server.stop()


@pytest.fixture()
def cluster_session(shard_servers):
    with Archive.connect([server.url for server in shard_servers]) as session:
        yield session


def run_to_completion(session, text, **kwargs):
    job = session.submit(text, **kwargs)
    job.cursor.fetchall()
    job.join()
    return job


class TestMergedTrace:
    def test_single_tree_with_no_orphans(self, cluster_session):
        job = run_to_completion(cluster_session, QUERY)
        trace = job.trace()
        roots = trace.roots()
        assert [span.name for span in roots] == ["query"]
        ids = {span.span_id for span in trace.spans}
        orphans = [
            span.name
            for span in trace.spans
            if span.parent_id is not None and span.parent_id not in ids
        ]
        assert orphans == []

    def test_covers_client_phases_wire_and_server_execution(
        self, cluster_session
    ):
        job = run_to_completion(cluster_session, QUERY)
        trace = job.trace()
        names = [span.name for span in trace.spans]
        for phase in ("query", "parse", "plan", "execute"):
            assert phase in names
        remote_leaves = [s for s in trace.spans if s.name == "node:remote"]
        assert len(remote_leaves) >= 2  # multi-endpoint scatter-gather
        for leaf in remote_leaves:
            child_names = {c.name for c in trace.children_of(leaf)}
            assert "wire:submit" in child_names
            assert "wire:stream" in child_names
            # the server's grafted root rides under the remote leaf
            assert "query" in child_names

    def test_server_spans_correlate_back_to_client_trace(
        self, cluster_session
    ):
        job = run_to_completion(cluster_session, QUERY)
        trace = job.trace()
        grafted_roots = [
            span
            for span in trace.spans
            if span.name == "query" and span.parent_id is not None
        ]
        assert grafted_roots
        for span in grafted_roots:
            assert span.attrs.get("client_trace_id") == job.trace_id

    def test_span_walltimes_consistent_with_job_timing(self, cluster_session):
        job = run_to_completion(cluster_session, QUERY)
        trace = job.trace()
        execute = trace.first("execute")
        assert execute.duration() == pytest.approx(
            job.time_to_completion, rel=0.10
        )
        # every finished span nests inside the overall query span's window
        query_span = trace.first("query")
        for span in trace.spans:
            if span.duration() is not None:
                assert span.ended_at <= query_span.ended_at + 0.010


class TestTelemetrySums:
    def test_containers_read_matches_per_server_truths(
        self, cluster_session, shard_servers
    ):
        job = run_to_completion(cluster_session, QUERY)
        client = job.metrics()
        server_read = server_pooled = 0
        for server in shard_servers:
            for served in server.jobs():
                counters = served.metrics()
                server_read += counters["job.containers_read"]
                server_pooled += counters["job.containers_from_pool"]
        assert client["job.containers_read"] == server_read
        assert client["job.containers_from_pool"] == server_pooled
        # physical read or pool hit depends on whether earlier tests
        # warmed the (store-owned) buffer pool; the sum is the truth
        assert server_read + server_pooled > 0

    def test_cache_counters_sum_across_endpoints(
        self, cluster_session, shard_servers
    ):
        """Regression: one endpoint's cache counters used to overwrite
        the previous endpoint's in the job's counters."""
        # Prime each server's (in-process) cache with distinct counters.
        for i, server in enumerate(shard_servers):
            server.service.cache.stats.hits = 10 * (i + 1)
            server.service.cache.stats.misses = i + 1
        job = run_to_completion(cluster_session, QUERY)
        metrics = job.metrics()
        assert metrics["cache.hits"] == 10 + 20 + 30
        assert metrics["cache.misses"] == 1 + 2 + 3
        assert metrics["cache.hit_rate"] == pytest.approx(60 / 66)


class TestStatsOp:
    def test_one_snapshot_per_endpoint(self, cluster_session, shard_servers):
        run_to_completion(cluster_session, QUERY)
        stats = cluster_session.server_stats()
        assert len(stats) == len(shard_servers)
        endpoints = {entry["endpoint"] for entry in stats}
        assert len(endpoints) == len(shard_servers)
        for entry in stats:
            assert entry["uptime_seconds"] >= 0.0
            metrics = entry["metrics"]
            # acceptance surface: cache hit rate + admission queue depth
            assert "admission.queue_depth" in metrics
            assert "cache.hit_rate" in metrics
            assert entry["server"]["cache_enabled"] is True

    def test_per_user_job_counts(self, cluster_session, shard_servers):
        run_to_completion(cluster_session, QUERY)
        stats = cluster_session.server_stats()
        # per-submission connections close after the drain, so served
        # jobs land in the retired window; jobs_by_user counts both
        touched = [
            entry for entry in stats if entry["server"]["jobs_by_user"]
        ]
        assert touched  # at least one endpoint served a shard
        for entry in touched:
            assert entry["server"]["jobs_by_user"].get("anonymous", 0) >= 1


class TestSingleServerCacheReplay:
    def test_stats_op_sees_cache_hit_rate_move(self, engine):
        with ArchiveServer(backend=engine, cache=True) as server:
            with Archive.connect(server.url) as session:
                first = run_to_completion(session, QUERY)
                second = run_to_completion(session, QUERY)
                assert first.io_report()["cache"]["hit"] is False
                assert second.io_report()["cache"]["hit"] is True
                stats = session.server_stats()
                assert stats["metrics"]["cache.hit_rate"] > 0.0


class TestShardHalvesBypassTheTier:
    GROUPED = (
        "SELECT objtype, COUNT(objid) AS n, AVG(mag_r) AS m FROM photo "
        "GROUP BY objtype ORDER BY objtype"
    )

    def test_partials_never_reach_the_cache(
        self, cluster_session, shard_servers, partitioned_archive
    ):
        """A shard half emits accumulator states (an AVG as its sum and
        count), no user's answer: run twice, it neither fills nor hits
        an endpoint's result cache, and a full-mode query of the same
        text still gets that endpoint's own finished rows."""
        for _ in range(2):
            run_to_completion(cluster_session, self.GROUPED)
        for server in shard_servers:
            cache = server.service.cache
            assert (cache.stats.fills, cache.stats.hits, len(cache)) == (0, 0, 0)
        node = partitioned_archive.servers[0]
        with Archive.connect(stores=node.stores()) as local:
            expected = local.query_table(self.GROUPED)
        with Archive.connect(shard_servers[0].url) as direct:
            answer = direct.query_table(self.GROUPED)
        assert answer.schema.field_names() == expected.schema.field_names()
        assert answer["objtype"].tolist() == expected["objtype"].tolist()
        assert answer["n"].tolist() == expected["n"].tolist()
        assert answer["m"].tolist() == pytest.approx(expected["m"].tolist())
