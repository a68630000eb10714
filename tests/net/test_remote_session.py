"""The remote differential corpus: ``archive://`` == local, row for row.

The acceptance gate of the network layer: the same query corpus the
session suite pins across local entry points runs here through a real
TCP hop — interactive *and* batch query classes — and must agree with
the single-store engine row for row, empty-result schemas included.
"""

import pytest

from repro.net import ArchiveServer, RemoteExecutor
from repro.obs.metrics import registry
from repro.query.errors import ExecutionError, ParseError, PlanError
from repro.session import Archive, PlanTree
from repro.storage import DuplicateKeyError

# The session suite's corpus (tests/session/test_session_differential.py),
# unchanged: mode 'rows' compares canonically sorted rows, 'ordered'
# positionally, 'count' cardinality only (LIMIT without ORDER BY picks
# implementation-defined rows).
CORPUS = [
    ("SELECT objid FROM photo WHERE mag_r < 16", "rows"),
    ("SELECT * FROM photo WHERE mag_r < 15", "rows"),
    ("SELECT objid FROM photo WHERE CIRCLE(40, 30, 5)", "rows"),
    ("SELECT objid FROM photo WHERE CIRCLE(40, 30, 10) AND objtype = GALAXY", "rows"),
    ("SELECT objid, mag_g - mag_r AS gr FROM photo WHERE mag_r < 16.5", "rows"),
    ("SELECT objid FROM photo WHERE RECT(20, 60, 10, 40) AND mag_g < 18", "rows"),
    ("SELECT objid FROM photo WHERE mag_r < 0", "rows"),  # empty bag
    ("SELECT objid, mag_r FROM photo WHERE mag_r < 17 ORDER BY mag_r, objid", "ordered"),
    ("SELECT objid, mag_r FROM photo ORDER BY mag_r DESC, objid LIMIT 25", "ordered"),
    (
        "SELECT objid, DIST_ARCMIN(40, 30) AS d FROM photo "
        "WHERE CIRCLE(40, 30, 3) ORDER BY d, objid",
        "ordered",
    ),
    ("SELECT objid FROM photo LIMIT 7", "count"),
    ("SELECT objtype, COUNT(objid) AS n FROM photo GROUP BY objtype", "ordered"),
    (
        "SELECT objtype, AVG(mag_r) AS m, COUNT(objid) AS n FROM photo "
        "WHERE mag_r < 19 GROUP BY objtype",
        "ordered",
    ),
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


def _compare(expected, got, mode, same_rows):
    if mode == "count":
        assert (0 if expected is None else len(expected)) == (
            0 if got is None else len(got)
        )
        return
    same_rows(expected, got, ordered=(mode == "ordered"))


@pytest.mark.parametrize("query,mode", CORPUS)
def test_remote_agrees_with_local(
    session, remote_session, same_rows, query, mode
):
    """archive:// == single-store engine, both query classes."""
    expected = session.query_table(query)

    # Interactive class: streams over the wire ASAP.
    _compare(expected, remote_session.query_table(query), mode, same_rows)

    # Batch class: queued through the client session's batch machine AND
    # the server session's batch machine, delivered on completion.
    job = remote_session.submit(query, query_class="batch")
    assert job.wait(timeout=60).value == "done"
    _compare(expected, job.cursor.to_table(), mode, same_rows)


@pytest.mark.parametrize("query,_mode", CORPUS)
def test_remote_explain_is_structured(remote_session, query, _mode):
    """Explain over the wire shows the *server's* real plan: the same
    structured tree, bottoming out in scans, annotated with the
    endpoint."""
    tree = remote_session.explain(query)
    assert isinstance(tree, PlanTree)
    assert tree.find("scan"), "remote plans bottom out in server-side scans"
    rendering = tree.render()
    assert "scan" in rendering
    assert "endpoint=archive://" in rendering


def test_remote_session_is_ordinary(remote_session, archive_server):
    """The facade holds: kind, job lifecycle, cursors, live counters."""
    assert remote_session.backend == "remote"
    job = remote_session.submit("SELECT objid, mag_r FROM photo WHERE mag_r < 18")
    cursor = job.cursor
    page = cursor.fetchmany(5)
    assert len(page) <= 5
    rest = cursor.to_table()
    assert job.state.value == "done"
    assert job.rows == len(page) + len(rest)
    assert cursor.time_to_first_row is not None
    assert cursor.time_to_completion is not None
    # The submission became a real server-side session job.
    assert any(j.state.value == "done" for j in archive_server.jobs())


def test_remote_stats_arrive_over_the_wire(engine, remote_session):
    """Job.node_stats / io_report aggregate server-side NodeStats instead
    of returning empty client-side (the telemetry satellite)."""
    cursor = remote_session.execute("SELECT objid FROM photo")
    table = cursor.to_table()
    assert len(table) > 0

    stats = cursor.node_stats()
    assert stats, "remote jobs must expose node stats"
    (node_stats,) = [s for node, s in stats.items() if node.name == "remote"]
    total_deliveries = (
        node_stats.containers_read + node_stats.containers_from_pool
    )
    # At least one whole sweep of the store it reads (the tag route).
    assert total_deliveries >= len(engine.stores["tag"].snapshot.pages()[1]) - 1

    report = cursor.io_report()
    assert report["containers_read"] + report["containers_from_pool"] > 0
    assert report["sweep_sharing_factor"] is not None
    assert report["buffer_pool_hit_rate"] is not None


def test_parse_and_plan_errors_re_raise_originally(remote_session):
    """Server-side planning failures surface with their original class."""
    with pytest.raises(ParseError):
        remote_session.submit("SELEKT objid FROM photo")
    with pytest.raises(PlanError):
        remote_session.submit("SELECT objid FROM nonsuch")


def test_a_repeated_objid_keeps_its_class_over_the_wire(fresh_stores):
    """An INTO that repeats an ``objid`` fails on the server after
    ``accepted``: the reader sees the stream's ExecutionError, caused by
    the server's DuplicateKeyError rebuilt from the error frame."""
    with ArchiveServer(stores=fresh_stores) as server:
        with Archive.connect(server.url) as session:
            with pytest.raises(ExecutionError) as excinfo:
                session.query_table(
                    "SELECT FLOOR(mag_r) AS objid, mag_r INTO mydb.b FROM photo"
                )
            cause = excinfo.value.__cause__
            assert isinstance(cause, DuplicateKeyError)
            assert str(cause).startswith("mydb.b refuses rows: objid [")
            assert session.my_tables() == []


def test_a_refused_start_leaves_no_job(remote_session):
    """An interactive query is submitted as it starts, inside
    ``Session.submit``: the refusal raises there, and the job is
    withdrawn uncounted.  A batch job is submitted when the dispatcher
    starts it, so the refusal fails that job."""
    before = remote_session.jobs
    counted = registry().snapshot().get("session.queries_submitted", 0)
    with pytest.raises(ParseError):
        remote_session.submit("SELEKT objid FROM photo")
    assert remote_session.jobs == before
    assert registry().snapshot().get("session.queries_submitted", 0) == counted
    job = remote_session.submit("SELEKT objid FROM photo", query_class="batch")
    assert job.wait(timeout=30.0).value == "failed"
    assert isinstance(job.error, ParseError)
    assert remote_session.jobs == [*before, job]


def test_hello_reports_the_backend(archive_server):
    executor = RemoteExecutor("127.0.0.1", archive_server.port)
    hello = executor.hello()
    assert hello["kind"] == "local"
    assert hello["shard_capable"] is True
    assert set(hello["sources"]) == {"photo", "tag"}
    assert hello["depth"] == 5
    assert all(info["ranges"] for info in hello["sources"].values())
