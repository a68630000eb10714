"""Chaos harness: seeded mid-query server kills over a cluster.

The acceptance contract of the fault-tolerance work:

* a seeded :class:`ScriptedFaults` kill of one shard server mid-stream
  must yield *row-identical* answers to the fault-free local engine —
  the undelivered container ranges re-route to surviving replicas with
  no row lost or duplicated — and the job must report the failover;
* a kill with no surviving replica for some ranges — on a replicated
  cluster after a cascade, on an unreplicated one at once — must end
  the job FAILED with a structured :class:`UnrecoverableShardError`
  naming the dead endpoint and the unrecoverable container ranges —
  never a hang, never a silent partial result (the conftest timeout
  guard enforces "never a hang").
"""

from __future__ import annotations

import random
import socket

import pytest

from repro.net import RemotePartitionedExecutor, ScriptedFaults
from repro.net.client import ServerLink
from repro.obs import QueryLog
from repro.obs.metrics import registry
from repro.query.errors import ExecutionError, UnrecoverableShardError
from repro.session import Archive

JOIN_TIMEOUT = 60.0

#: Deterministic seed for the "random server kill": the batch index at
#: which the victim dies is drawn once, at import, from this seed, so
#: every run replays the identical chaos script.
CHAOS_SEED = 20020101
_rng = random.Random(CHAOS_SEED)

#: (query, comparison mode, victim batch index).  Ordered and aggregate
#: shard streams are single-batch breakers, so their kill lands on frame
#: 0; plain streams span several 512-row frames and die at a seeded one
#: — the spatial ones too, whose delivered claims the cover fragments
#: (each touches servers 0 and 1 and streams three frames from 1).
#: Bare LIMIT queries are excluded: LIMIT without ORDER BY legitimately
#: returns different (correct) rows per run, so there is no row-exact
#: differential to assert — their failover keeps the count and draws
#: every row from the full answer (:data:`BARE_LIMIT_KILLS`).
CHAOS_CORPUS = [
    ("SELECT objid FROM photo WHERE mag_r < 20", "rows", _rng.randrange(3)),
    ("SELECT objid, mag_u FROM photo", "rows", _rng.randrange(3)),
    (
        "SELECT objid, mag_r FROM photo WHERE mag_r < 19 "
        "ORDER BY mag_r, objid",
        "ordered",
        0,
    ),
    (
        "SELECT objtype, AVG(mag_r) AS m, COUNT(objid) AS n FROM photo "
        "WHERE mag_r < 19 GROUP BY objtype",
        "ordered",
        0,
    ),
    ("SELECT objid FROM photo WHERE CIRCLE(300, 0, 45)", "rows", _rng.randrange(3)),
    (
        "SELECT objid, ra, dec FROM photo WHERE RECT(225, 315, -30, 60)",
        "rows",
        _rng.randrange(3),
    ),
]


def _kill_at_batch(after):
    return ScriptedFaults(
        [{"point": "stream_batch", "action": "crash_server", "after": after}]
    )


def _urls(servers):
    return [server.url for server in servers]


@pytest.mark.parametrize("query,mode,after", CHAOS_CORPUS)
def test_seeded_mid_stream_kill_is_row_exact(
    local, chaos_cluster, same_rows, query, mode, after
):
    """Kill server 1 while it streams; answers stay row-identical.

    Server 1's disjoint assignment is its own partition (server 0, first
    in shard-id order, claimed the replicas it holds), and server 2 —
    pruned from the initial fan-out — holds the replica of exactly that
    partition, so every undelivered container has a surviving home.
    """
    faults = _kill_at_batch(after)
    servers = chaos_cluster({1: faults})
    expected = local.query_table(query)
    with Archive.connect(_urls(servers)) as session:
        job = session.submit(query)
        got = job.cursor.to_table()
        assert job.wait(timeout=JOIN_TIMEOUT).value == "done"
    same_rows(expected, got, ordered=(mode == "ordered"))
    # The scripted kill genuinely fired, exactly once.
    assert faults.fired == [("stream_batch", "crash_server")]
    report = job.io_report()
    assert report["failovers"] >= 1
    # Initial fan-out (2 endpoints) plus at least one re-routed segment.
    assert report["attempts"] >= 3


def test_replicated_cluster_without_faults_is_exact(
    local, chaos_cluster, same_rows
):
    """Replication alone must not change any answer: the disjoint range
    assignment scans every container exactly once despite overlapping
    holdings."""
    servers = chaos_cluster()
    corpus = [
        ("SELECT objid FROM photo WHERE mag_r < 16", "rows"),
        ("SELECT objid FROM photo WHERE CIRCLE(40, 30, 5)", "rows"),
        (
            "(SELECT objid FROM photo WHERE mag_r < 16) UNION "
            "(SELECT objid FROM photo WHERE mag_u < 17)",
            "rows",
        ),
        (
            "SELECT objtype, COUNT(objid) AS n FROM photo "
            "GROUP BY objtype ORDER BY n DESC",
            "ordered",
        ),
    ]
    with Archive.connect(_urls(servers)) as session:
        for query, mode in corpus:
            job = session.submit(query)
            got = job.cursor.to_table()
            assert job.wait(timeout=JOIN_TIMEOUT).value == "done"
            same_rows(local.query_table(query), got, ordered=(mode == "ordered"))
            assert job.io_report()["failovers"] == 0
        # Bare LIMIT has no row-exact differential, but the count holds
        # fault-free.
        job = session.submit("SELECT objid FROM photo LIMIT 40")
        assert len(job.cursor.to_table()) == 40
        assert job.wait(timeout=JOIN_TIMEOUT).value == "done"


#: (WHERE, LIMIT) of a bare-LIMIT query whose server 1 dies at its
#: second frame.  A LIMIT below 0 counts back from the full answer's
#: size: ``mag_r < 21`` needs all but 10 of its rows, so the coordinator
#: reads server 1 to the end.  The circle lies in server 1's partition
#: alone (server 0 is pruned) and streams 265 then 458 rows from it, so
#: its LIMIT 400 truncates the frame the victim dies at.
BARE_LIMIT_KILLS = [("mag_r < 21", -10), ("CIRCLE(310, 20, 40)", 400)]


@pytest.mark.parametrize("where,limit", BARE_LIMIT_KILLS)
def test_a_bare_limit_stream_fails_over(local, chaos_cluster, where, limit):
    """A shard's LIMIT stream resumes from its delivered claim like any
    other: the replacement segment adds rows disjoint from those
    delivered and the coordinator's LIMIT caps the sum, so the query
    completes with exactly LIMIT distinct rows of the full answer."""
    query = f"SELECT objid, mag_r FROM photo WHERE {where}"
    full = set(local.query_table(query)["objid"].tolist())
    limit = limit if limit > 0 else len(full) + limit
    assert 0 < limit < len(full)
    faults = _kill_at_batch(1)
    servers = chaos_cluster({1: faults})
    with Archive.connect(_urls(servers)) as session:
        job = session.submit(f"{query} LIMIT {limit}")
        got = job.cursor.to_table()["objid"].tolist()
        assert job.wait(timeout=JOIN_TIMEOUT).value == "done"
    assert faults.fired == [("stream_batch", "crash_server")]
    assert len(got) == limit == len(set(got))
    assert set(got) <= full
    assert job.io_report()["failovers"] >= 1


def test_cascading_deaths_fail_with_unrecoverable_ranges(chaos_cluster):
    """Kill the victim, then kill its replacement replica at submit:
    the job must end FAILED with a structured error naming the container
    ranges that no surviving replica holds — not hang, not truncate."""
    victim = _kill_at_batch(0)
    replacement = ScriptedFaults(
        [{"point": "op:submit", "action": "crash_server", "after": 0}]
    )
    servers = chaos_cluster({1: victim, 2: replacement})
    with Archive.connect(_urls(servers)) as session:
        job = session.submit("SELECT objid, mag_u FROM photo")
        with pytest.raises(ExecutionError):
            job.cursor.fetchall()
        assert job.wait(timeout=JOIN_TIMEOUT).value == "failed"
    assert isinstance(job.error, UnrecoverableShardError)
    assert job.error.ranges, "the failure must name the unrecoverable ranges"
    assert "container ranges" in str(job.error)
    # Both scripted faults fired: the cascade actually happened.
    assert victim.fired and replacement.fired


def test_unreplicated_kill_fails_structured_naming_endpoint_and_ranges(
    chaos_cluster, split_archive
):
    """A 2-endpoint cluster without replicas: server 1 dies after its
    first frame.  The job fails with an UnrecoverableShardError naming
    server 1 and container ranges it holds and had not yet delivered —
    not with a bare connection error."""
    from repro.htm.ranges import RangeSet

    faults = _kill_at_batch(1)
    servers = chaos_cluster({1: faults}, archive=split_archive)
    dead = servers[1].address
    with Archive.connect(_urls(servers)) as session:
        job = session.submit("SELECT objid, mag_u FROM photo")
        with pytest.raises(ExecutionError):
            job.cursor.fetchall()
        assert job.wait(timeout=JOIN_TIMEOUT).value == "failed"
    assert faults.fired == [("stream_batch", "crash_server")]
    assert isinstance(job.error, UnrecoverableShardError)
    assert job.error.endpoint == dead
    lost = RangeSet(job.error.ranges)
    held = RangeSet.from_ids(split_archive.servers[1].stores()["photo"].occupied_ids())
    assert not lost.is_empty() and lost.difference(held).is_empty()
    (leaf,) = [
        node for node in job.node_stats() if node.name == "remote" and node.endpoint == dead
    ]
    delivered = RangeSet(leaf._segment_delivered)
    assert not delivered.is_empty(), "the first frame carried a claim"
    assert not lost.overlaps(delivered)


def test_ordered_kill_splits_the_remainder_across_survivors(
    local, chaos_cluster, same_rows
):
    """Server 0's assignment spans two partitions, which no single
    survivor covers.  The coordinator sorts whatever its shard streams
    deliver, so the remainder splits across the survivors holding it and
    the ordered query completes with the local answer."""
    faults = _kill_at_batch(0)
    servers = chaos_cluster({0: faults})
    query = "SELECT objid, mag_r FROM photo WHERE mag_r < 19 ORDER BY mag_r, objid"
    with Archive.connect(_urls(servers)) as session:
        job = session.submit(query)
        got = job.cursor.to_table()
        assert job.wait(timeout=JOIN_TIMEOUT).value == "done"
    same_rows(local.query_table(query), got, ordered=True)
    assert faults.fired == [("stream_batch", "crash_server")]
    assert job.io_report()["failovers"] >= 1


def test_failover_telemetry_reaches_report_log_and_metrics(
    local, chaos_cluster, same_rows
):
    """Satellite: attempts/failovers surface in Job.io_report(), the
    job metric snapshot, and the query-log record."""
    faults = _kill_at_batch(1)
    servers = chaos_cluster({1: faults})
    query = "SELECT objid, mag_u FROM photo"
    before = registry().snapshot().get("net.failovers", 0)
    with Archive.connect(_urls(servers)) as session:
        job = session.submit(query)
        got = job.cursor.to_table()
        assert job.wait(timeout=JOIN_TIMEOUT).value == "done"
    same_rows(local.query_table(query), got)
    report = job.io_report()
    assert report["failovers"] >= 1
    assert report["attempts"] >= report["failovers"] + 2
    snap = job.metrics()
    assert snap["net.failovers"] == report["failovers"]
    assert snap["net.attempts"] == report["attempts"]
    record = QueryLog.record_for(job)
    assert record["io"]["failovers"] == report["failovers"]
    assert record["io"]["attempts"] == report["attempts"]
    assert registry().snapshot().get("net.failovers", 0) >= before + 1


def test_hello_retries_through_a_dropped_connection(chaos_cluster):
    """Satellite: control-plane ops retry with backoff.  A connection
    dropped during the very first hello probe is retried transparently
    and the whole cluster session works."""
    faults = ScriptedFaults(
        [{"point": "op:hello", "action": "drop_connection", "after": 0}]
    )
    servers = chaos_cluster({0: faults})
    before = registry().snapshot().get("net.retries", 0)
    with Archive.connect(_urls(servers)) as session:
        rows = session.query_table("SELECT objid FROM photo WHERE mag_r < 16")
        assert len(rows) > 0
    assert faults.fired == [("op:hello", "drop_connection")]
    assert registry().snapshot().get("net.retries", 0) >= before + 1


def test_a_refused_first_connection_of_a_query_is_retried(chaos_cluster, monkeypatch):
    """A single-endpoint query's first contact is its connection open.
    Nothing has been sent when that is refused, so the open retries
    with backoff; the submit itself is still one attempt."""
    servers = chaos_cluster()
    real_open = ServerLink.open
    refused = []

    def refuse_once(link, timeout):
        if not refused:
            refused.append(link.endpoint)
            raise ConnectionRefusedError("refused once")
        return real_open(link, timeout)

    with Archive.connect(servers[0].url) as session:
        before = registry().snapshot().get("net.retries", 0)
        monkeypatch.setattr(ServerLink, "open", refuse_once)
        job = session.submit("SELECT objid FROM photo WHERE mag_r < 16")
        assert len(job.cursor.to_table()) > 0
        assert job.wait(timeout=JOIN_TIMEOUT).value == "done"
    assert refused == [servers[0].address]
    assert registry().snapshot().get("net.retries", 0) >= before + 1
    assert job.metrics()["net.attempts"] == 1


def test_all_unreachable_endpoints_reported_in_one_error(chaos_cluster):
    """Satellite: the parallel hello probes aggregate every unreachable
    endpoint into a single ConnectionError instead of failing on the
    first one."""
    servers = chaos_cluster()
    dead_urls = []
    for _ in range(2):
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        dead_urls.append(f"archive://127.0.0.1:{port}")
    urls = [servers[0].url] + dead_urls
    with pytest.raises(ConnectionError) as caught:
        RemotePartitionedExecutor(urls, connect_timeout=1.0)
    message = str(caught.value)
    assert "2 of 3" in message
    for url in dead_urls:
        assert url in message


def test_full_mode_submit_is_never_retried(replicated_archive, chaos_cluster):
    """Submit is not idempotent after its first byte: a connection that
    dies at submit fails the job under the legacy contract (exactly one
    attempt, zero failovers) instead of being silently replayed."""
    faults = ScriptedFaults(
        [{"point": "op:submit", "action": "drop_connection", "after": 0}]
    )
    servers = chaos_cluster({0: faults})
    # Single-endpoint session: full-mode submission, no failover plan.
    with Archive.connect(servers[0].url) as session:
        job = session.submit("SELECT objid FROM photo WHERE mag_r < 16")
        with pytest.raises(ExecutionError):
            job.cursor.fetchall()
        assert job.wait(timeout=JOIN_TIMEOUT).value == "failed"
    assert "died mid-stream" in str(job.error)
    counters = job.metrics()
    assert counters["net.attempts"] == 1
    assert counters["net.failovers"] == 0
