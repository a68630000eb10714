"""Remote scatter-gather: partition servers in other processes.

A 3-way partitioning of the shared catalog is hosted behind three
in-process :class:`ArchiveServer`\\ s (one per partition, exactly the
shape a real deployment gives each partition server), and
``Archive.connect([url, url, url])`` must agree with the single-store
engine row for row — merges, partial aggregates, set operations and HTM
endpoint pruning included.
"""

import numpy as np
import pytest

from repro.distributed.routing import route_plan
from repro.net import PROTOCOL_VERSION, ArchiveServer, RemotePartitionedExecutor
from repro.query.optimizer import plan_query, shard_candidates
from repro.query.parser import parse_query
from repro.session import Archive
from repro.storage import ContainerStore, DistributedArchive

CLUSTER_CORPUS = [
    ("SELECT objid FROM photo WHERE mag_r < 16", "rows"),
    ("SELECT objid FROM photo WHERE CIRCLE(40, 30, 5)", "rows"),
    ("SELECT objid FROM photo WHERE mag_r < 0", "rows"),  # empty bag
    ("SELECT objid, mag_r FROM photo WHERE mag_r < 17 ORDER BY mag_r, objid", "ordered"),
    ("SELECT objid, mag_r FROM photo ORDER BY mag_r DESC, objid LIMIT 25", "ordered"),
    (
        "SELECT objtype, AVG(mag_r) AS m, COUNT(objid) AS n FROM photo "
        "WHERE mag_r < 19 GROUP BY objtype",
        "ordered",
    ),
    (
        "SELECT objtype, COUNT(objid) AS n FROM photo "
        "GROUP BY objtype HAVING n > 100 ORDER BY n DESC",
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
]


@pytest.fixture(scope="module")
def partitioned_archive(photo, tags):
    """A 3-server partitioning of the shared catalog (read-only)."""
    archive = DistributedArchive.from_table(photo, depth=5, n_servers=3)
    archive.attach_source("tag", tags)
    return archive


@pytest.fixture(scope="module")
def shard_servers(partitioned_archive):
    """One ArchiveServer per partition, hosting that server's stores."""
    servers = [
        ArchiveServer(stores=node.stores()).start()
        for node in partitioned_archive.servers
    ]
    yield servers
    for server in servers:
        server.stop()


@pytest.fixture(scope="module")
def cluster_session(shard_servers):
    urls = [server.url for server in shard_servers]
    with Archive.connect(urls) as session:
        yield session


@pytest.mark.parametrize("query,mode", CLUSTER_CORPUS)
def test_cluster_agrees_with_local(
    session, cluster_session, same_rows, query, mode
):
    expected = session.query_table(query)
    got = cluster_session.query_table(query)
    same_rows(expected, got, ordered=(mode == "ordered"))

    # Batch class rides the same scatter-gather.
    job = cluster_session.submit(query, query_class="batch")
    assert job.wait(timeout=60).value == "done"
    same_rows(expected, job.cursor.to_table(), ordered=(mode == "ordered"))


def test_cluster_prunes_endpoints_conservatively(
    cluster_session, partitioned_archive, engine, session
):
    """A spatially-selective query skips endpoints whose advertised
    container ranges miss the cover — and never one the in-process
    router would have touched *and* that actually holds candidate
    containers."""
    query = "SELECT objid FROM photo WHERE CIRCLE(40, 30, 5)"
    prepared = cluster_session.executor.prepare(query)
    report = prepared.reports[0]
    assert report.servers_total == 3
    assert sorted(report.touched_server_ids + report.pruned_server_ids) == [
        0,
        1,
        2,
    ]
    assert report.pruned_server_ids, "a 5-degree cone must prune shards"

    plan = plan_query(parse_query(query), engine.schemas)
    candidates = shard_candidates(plan, partitioned_archive.depth)
    local_assignments, _local_report = route_plan(
        partitioned_archive, plan.routed_source, candidates
    )
    assert set(report.touched_server_ids) <= {
        node.server_id for node, _assigned in local_assignments
    }
    # Correctness despite pruning: the cone's rows are complete.
    assert len(cluster_session.query_table(query)) == len(
        session.query_table(query)
    )


def test_cluster_explain_shows_remote_fanout(cluster_session):
    tree = cluster_session.explain(
        "SELECT objid, mag_r FROM photo WHERE mag_r < 18 ORDER BY mag_r"
    )
    rendering = tree.render()
    assert "remote" in rendering
    assert "mode=shard" in rendering
    fanout_nodes = [n for n in tree.walk() if "servers" in n.detail]
    assert fanout_nodes, "cluster explain must surface the fan-out"
    remotes = tree.find("remote")
    assert remotes and all("endpoint" in n.detail for n in remotes)


def test_cluster_rejects_non_shard_endpoints(partitioned_archive):
    """A distributed-backend server cannot serve shard-mode queries; the
    coordinator must refuse it up front."""
    with ArchiveServer(archive=partitioned_archive) as server:
        with pytest.raises(ValueError, match="shard-mode"):
            RemotePartitionedExecutor([server.url])


def test_cluster_rejects_an_endpoint_of_another_protocol_version(
    shard_servers, monkeypatch
):
    """A shard submit names its SELECT by ``select_index``, which a
    protocol version may renumber: the coordinator refuses an endpoint
    of another version at connect, naming it and both versions."""
    behind = shard_servers[1]
    real_hello = behind._hello
    older = PROTOCOL_VERSION - 1
    monkeypatch.setattr(behind, "_hello", lambda: dict(real_hello(), version=older))
    url = behind.url
    with pytest.raises(ValueError) as caught:
        RemotePartitionedExecutor([server.url for server in shard_servers])
    message = str(caught.value)
    assert url in message
    assert f"version {older}" in message and str(PROTOCOL_VERSION) in message


def test_cluster_survives_scale_mismatch_probe(shard_servers):
    """hello-based construction validates depth agreement."""
    executor = RemotePartitionedExecutor(
        [server.url for server in shard_servers]
    )
    assert len(executor.shards) == 3
    assert executor.depth == 5
    assert set(executor.schemas) == {"photo", "tag"}


def test_into_is_refused_like_every_other_mydb_less_backend(cluster_session):
    """``SELECT ... INTO`` through a remote cluster used to drop the
    INTO silently and stream the rows; it must raise the same
    ``SessionError`` a ``stores=``/``archive=`` session without a MyDB
    tier raises."""
    from repro.session import SessionError

    with pytest.raises(SessionError, match="needs a MyDB-enabled service tier"):
        cluster_session.submit(
            "SELECT objid INTO mydb.bright FROM photo WHERE mag_r < 18"
        )


def test_a_shard_submission_without_ranges_is_refused(shard_servers):
    """Every shard submission carries its container assignment: a raw
    ``mode="shard"`` submit without ``ranges`` is refused with a
    structured error instead of scanning a cover of the server's own."""
    from repro.net.client import ServerLink
    from repro.session import SessionError

    link = ServerLink(shard_servers[0].address)
    submit = {
        "op": "submit",
        "text": "SELECT objid FROM photo WHERE CIRCLE(40, 30, 5)",
        "mode": "shard",
        "select_index": 0,
    }
    with pytest.raises(SessionError, match="must carry its container assignment"):
        link.once(submit)
    accepted = link.once({**submit, "ranges": [[0, 1]]})
    assert accepted["op"] == "accepted"
    link.once({"op": "cancel", "job_id": accepted["job_id"]})


def test_a_submission_in_an_unknown_mode_is_refused(shard_servers):
    from repro.net.client import ServerLink
    from repro.session import SessionError

    link = ServerLink(shard_servers[0].address)
    with pytest.raises(SessionError, match="unknown submission mode 'half'"):
        link.once(
            {
                "op": "submit",
                "text": "SELECT objid FROM photo",
                "mode": "half",
                "ranges": [[0, 1]],
            }
        )


def test_a_shard_submission_to_a_backend_without_prepare_shard_is_refused(photo):
    """Shard mode needs a single-store engine: a server hosting a
    partitioned archive refuses it with a structured error."""
    from repro.net.client import ServerLink
    from repro.session import SessionError

    archive = DistributedArchive.from_table(photo, depth=5, n_servers=2)
    with ArchiveServer(archive=archive) as server:
        link = ServerLink(server.address)
        with pytest.raises(SessionError, match="cannot run shard-mode queries"):
            link.once(
                {
                    "op": "submit",
                    "text": "SELECT objid FROM photo",
                    "mode": "shard",
                    "select_index": 0,
                    "ranges": [[0, 1]],
                }
            )


@pytest.mark.parametrize(
    "query",
    [
        "SELECT objid, mag_r FROM photo",  # the tag route
        "SELECT objid, run, petro_r50 FROM photo",  # the photo route
        "SELECT objid, ra FROM photo WHERE mag_r < 19",
    ],
)
def test_an_assignment_boundary_inside_a_page_delivers_every_row_once(
    photo, tags, session, same_rows, query
):
    """Pages never decide which rows a shard sends.  Endpoint 0 holds
    the trixels below a boundary and endpoint 1 every trixel, so the
    cluster assigns the lower ids to endpoint 0 and the rest to
    endpoint 1 — and the boundary falls inside one of endpoint 1's
    pages.  That page's trixels below it are endpoint 0's: endpoint 1
    must send only its own part, so every row arrives once."""
    whole = {
        "photo": ContainerStore.from_table(photo, depth=5),
        "tag": ContainerStore.from_table(tags, depth=5),
    }
    (run,) = whole["photo"].snapshot.runs
    k = run.page_first[len(run.page_first) // 2] + 1  # the second trixel of a middle page
    boundary = run.id_list[k]
    for store in whole.values():
        snapshot = store.snapshot
        j = snapshot.ids.tolist().index(boundary)
        assert snapshot.pages_of(j - 1, j) == snapshot.pages_of(j, j + 1)
    lower = {}
    for name, table in (("photo", photo), ("tag", tags)):
        below = whole[name].container_ids_for(table) < boundary
        lower[name] = ContainerStore.from_table(table.select(below), depth=5)
    servers = [ArchiveServer(stores=stores).start() for stores in (lower, whole)]
    try:
        with Archive.connect([server.url for server in servers]) as cluster:
            job = cluster.submit(query)
            got = job.cursor.to_table()
            sent = [s.rows_out for node, s in job.node_stats().items() if node.name == "remote"]
    finally:
        for server in servers:
            server.stop()
    objids = np.asarray(got["objid"])
    assert len(np.unique(objids)) == len(objids)
    same_rows(session.query_table(query), got)
    assert len(sent) == 2 and all(sent), "both endpoints sent rows"
