"""Cancellation stops every QET node thread promptly — no orphans.

The satellite regression for ``Job.cancel()``: cancelling mid-stream
must cascade through the whole execution tree (scans, pipeline breakers
blocked draining children, distributed gather points) for both the
local and the distributed backend, and ``join`` must leave zero live
node threads within a tight timeout.
"""

import time

import pytest

# Queries chosen to exercise the distinct blocking shapes: a streaming
# scan->project chain, a pipeline-breaking sort draining its child, an
# aggregation, and a set operation with concurrent child drains.
CANCEL_QUERIES = [
    "SELECT objid FROM photo",
    "SELECT objid, mag_r FROM photo ORDER BY mag_r",
    "SELECT objtype, COUNT(objid) AS n FROM photo GROUP BY objtype",
    # two sources, so the UNION keeps its node (one source would fuse)
    "(SELECT objid FROM photo WHERE mag_r < 20) UNION "
    "(SELECT objid FROM tag WHERE mag_u < 21)",
]

JOIN_TIMEOUT = 5.0


def _assert_no_orphans(result):
    started = time.perf_counter()
    result.join(JOIN_TIMEOUT)
    elapsed = time.perf_counter() - started
    alive = result.alive_nodes()
    assert alive == [], f"threads still alive after cancel+join: {alive}"
    assert elapsed < JOIN_TIMEOUT, "join hit its timeout — cancel was not prompt"


class TestCursorLevelCancel:
    """Cancelling through the cursor gives the same guarantee — also
    when it lands before a single batch was read (the cancel that races
    the tree's thread start)."""

    @pytest.mark.parametrize("query", CANCEL_QUERIES)
    def test_local_cancel_mid_stream(self, local_session, query):
        job = local_session.submit(query)
        iterator = iter(job.cursor)
        next(iterator, None)  # consume at most one batch, then abandon
        job.cursor.cancel()
        _assert_no_orphans(job)

    @pytest.mark.parametrize("query", CANCEL_QUERIES)
    def test_local_cancel_immediately(self, local_session, query):
        job = local_session.submit(query)
        job.cursor.cancel()
        _assert_no_orphans(job)

    @pytest.mark.parametrize("query", CANCEL_QUERIES)
    def test_distributed_cancel_mid_stream(self, dist_session, query):
        job = dist_session.submit(query)
        iterator = iter(job.cursor)
        next(iterator, None)
        job.cursor.cancel()
        _assert_no_orphans(job)

    @pytest.mark.parametrize("query", CANCEL_QUERIES)
    def test_distributed_cancel_immediately(self, dist_session, query):
        job = dist_session.submit(query)
        job.cursor.cancel()
        _assert_no_orphans(job)


class TestJobLevelCancel:
    @pytest.mark.parametrize("query", CANCEL_QUERIES)
    def test_local_job_cancel(self, local_session, query):
        job = local_session.submit(query)
        iterator = iter(job.cursor)
        next(iterator, None)
        job.cancel()
        job.join(JOIN_TIMEOUT)
        assert job.alive_nodes() == []
        assert job.state.value == "cancelled"

    @pytest.mark.parametrize("query", CANCEL_QUERIES)
    def test_distributed_job_cancel(self, dist_session, query):
        job = dist_session.submit(query)
        iterator = iter(job.cursor)
        next(iterator, None)
        job.cancel()
        job.join(JOIN_TIMEOUT)
        assert job.alive_nodes() == []
        assert job.state.value == "cancelled"

    def test_cancelled_rows_remain_readable(self, dist_session):
        job = dist_session.submit("SELECT objid FROM photo")
        iterator = iter(job.cursor)
        first = next(iterator, None)
        job.cancel()
        job.join(JOIN_TIMEOUT)
        # Already-produced rows stay readable; the stream just ends.
        if first is not None:
            assert len(first) > 0
        assert job.alive_nodes() == []
