"""One ``ServerLink`` behind every wire call; identity on any frame, stats on ``done``.

* wire shape — what a query dispatches server-side, op by op, counted
  with a ``fault_policy`` hook: ``submit, fetch_batch×k`` for an
  authenticated ``archive://`` session and for one shard of a cluster,
  credentialed or not; no ``hello`` —
  and the client's round-trip telemetry counts exactly those ops; the
  retired ``job_stats`` and ``io_report`` ops are not served;
* identity on the first frame — the client puts credentials on
  whatever op opens the connection and the server takes them there; a
  cluster's endpoints get them from their URLs or from ``user=`` /
  ``token=``; a bad token is refused and leaves
  the connection unauthenticated, an anonymous frame on an ``auth=``
  server is refused outright, and the owner's side-channel ``cancel``
  reaches a job blocked in the server's batch queue;
* a client-side ``service=`` / ``cache=`` tier on an ``archive://`` URL
  is an error at connect, not a silent no-op;
* one recv bound for every one-shot exchange.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.net import ArchiveServer, FaultPolicy
from repro.net.client import (
    RemoteExecutor,
    ServerLink,
    _request,
    open_connection,
)
from repro.net.protocol import PROTOCOL_VERSION
from repro.service import ServiceTier
from repro.service.errors import AuthenticationError
from repro.session import Archive, SessionError
from repro.storage import ContainerStore, DistributedArchive

ONE_ROW = "SELECT COUNT(objid) AS n FROM photo WHERE mag_r < 19"
USERS = {"alice": "s3cret", "bob": "hunter2"}


class CountOps(FaultPolicy):
    """Records every op the server dispatches, in order."""

    def __init__(self):
        self.ops = []
        self._lock = threading.Lock()

    def on_op(self, op, header):
        with self._lock:
            self.ops.append(op)

    def take(self):
        with self._lock:
            ops, self.ops = self.ops, []
        return ops


def assert_query_ops(ops, opening):
    """``opening`` then nothing but fetches.  One result batch is one
    round (k = 1, as before the change) unless the fetch lands between
    the batch and the end of the stream, which makes it two."""
    fetches = ops[len(opening) :]
    assert ops[: len(opening)] == opening
    assert fetches in (["fetch_batch"], ["fetch_batch"] * 2), ops


def url_for(server, user):
    host, port = server.address
    return f"archive://{user}:{USERS[user]}@{host}:{port}"


@pytest.fixture()
def auth_server(fresh_stores):
    counter = CountOps()
    with ArchiveServer(
        stores=fresh_stores,
        auth=USERS,
        cache=True,
        fault_policy=counter,
    ) as server:
        server.counter = counter
        yield server


# ----------------------------------------------------------------------
# wire shape
# ----------------------------------------------------------------------


def test_authenticated_cached_query_ends_with_its_last_fetch(auth_server):
    with Archive.connect(url_for(auth_server, "alice")) as session:
        first = session.query_table(ONE_ROW)
        auth_server.counter.take()
        trips_before = session.executor.telemetry.snapshot()
        job = session.submit(ONE_ROW)
        replay = job.cursor.to_table()
        job.join()
        ops = auth_server.counter.take()
        trips = session.executor.telemetry.snapshot() - trips_before
    assert job.io_report()["cache"]["hit"] is True
    assert replay.data.tolist() == first.data.tolist()
    assert_query_ops(ops, ["submit"])
    assert trips == len(ops)


@pytest.fixture()
def connections(auth_server):
    """The connections ``auth_server`` accepts, counted from here on."""
    accepted = []
    serve = auth_server._serve_connection

    def counting(sock):
        accepted.append(None)
        serve(sock)

    auth_server._serve_connection = counting
    return accepted


def test_a_remote_query_is_one_connection_cached_or_not(auth_server, connections):
    """The query's one connection carries ``submit`` and its fetches:
    the server plans it once, and ``accepted`` describes it."""
    with Archive.connect(url_for(auth_server, "alice")) as session:
        for cached in (False, True):
            auth_server.counter.take()
            connections.clear()
            job = session.submit(ONE_ROW)
            assert job.static_schema.field_names() == ["n"]
            assert len(job.cursor.to_table()) == 1
            job.join()
            assert job.io_report()["cache"]["hit"] is cached
            assert_query_ops(auth_server.counter.take(), ["submit"])
            assert len(connections) == 1


def test_remote_explain_is_one_prepare_exchange(auth_server, connections):
    with Archive.connect(url_for(auth_server, "alice")) as session:
        auth_server.counter.take()
        connections.clear()
        assert session.explain(ONE_ROW).find("scan")
        assert auth_server.counter.take() == ["prepare"]
        assert len(connections) == 1
    assert auth_server.jobs() == []


def test_a_logged_query_never_asks_for_the_remote_plan(auth_server, tmp_path):
    log_path = tmp_path / "queries.jsonl"
    with Archive.connect(
        url_for(auth_server, "alice"), query_log=str(log_path)
    ) as session:
        auth_server.counter.take()
        job = session.submit(ONE_ROW)
        job.cursor.to_table()
        job.join()
    assert log_path.read_text().count("\n") == 1
    assert "prepare" not in auth_server.counter.take()
    assert job._prepared.root._remote_plan is None


@pytest.mark.parametrize("identity", ["anonymous", "url", "keywords"])
def test_one_cluster_shard_sees_submit_and_fetches_only(
    photo, tags, session, same_rows, identity
):
    """Credentials reach every endpoint, from its URL or from ``user=`` /
    ``token=``, on the frames a shard query sends anyway."""
    halves = DistributedArchive.from_table(photo, depth=5, n_servers=2)
    halves.attach_source("tag", tags)
    counters = [CountOps(), CountOps()]
    auth = None if identity == "anonymous" else USERS
    servers = [
        ArchiveServer(stores=node.stores(), auth=auth, fault_policy=counter).start()
        for node, counter in zip(halves.servers, counters)
    ]
    urls = [url_for(s, "alice") if identity == "url" else s.url for s in servers]
    keywords = {}
    if identity == "keywords":
        keywords = {"user": "alice", "token": USERS["alice"]}
    try:
        with Archive.connect(urls, **keywords) as cluster:
            assert [counter.take() for counter in counters] == [["hello"], ["hello"]]
            trips_before = cluster.executor.telemetry.snapshot()
            table = cluster.query_table(ONE_ROW)
            per_shard = [counter.take() for counter in counters]
            trips = cluster.executor.telemetry.snapshot() - trips_before
    finally:
        for server in servers:
            server.stop()
    same_rows(table, session.query_table(ONE_ROW))
    for ops in per_shard:
        assert_query_ops(ops, ["submit"])
    assert trips == sum(len(ops) for ops in per_shard)


def test_retired_ops_are_gone(auth_server):
    """The ``done`` frame carries what ``io_report`` and ``job_stats``
    answered; neither op is served any more."""
    assert PROTOCOL_VERSION == 7
    link = ServerLink(auth_server.address, user="alice", token=USERS["alice"])
    for op in ("io_report", "job_stats"):
        with pytest.raises(Exception, match=f"unknown operation '{op}'"):
            link.once({"op": op, "job_id": "rjob-1"})


# ----------------------------------------------------------------------
# identity on the first frame
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "frame",
    [
        {"op": "submit", "text": ONE_ROW},
        {"op": "mydb", "action": "list"},
        {"op": "cancel", "job_id": "rjob-1"},
    ],
    ids=lambda frame: frame["op"],
)
def test_wrong_token_on_first_frame_leaves_connection_unauthenticated(
    auth_server, frame
):
    probe = open_connection(auth_server.address, 5.0, 5.0)
    try:
        with pytest.raises(AuthenticationError):
            _request(probe, {**frame, "user": "alice", "token": "wrong"})
        # the refusal identified nobody: the next frame is anonymous
        with pytest.raises(AuthenticationError, match="requires authentication"):
            _request(probe, {"op": "mydb", "action": "list"})
        # ... and a good frame on the same connection still gets in
        header, _ = _request(
            probe, {"op": "mydb", "action": "list", "user": "bob", "token": "hunter2"}
        )
        assert header["tables"] == []
    finally:
        probe.close()
    assert auth_server.jobs() == []


def test_anonymous_first_frame_refused_outright(auth_server):
    probe = open_connection(auth_server.address, 5.0, 5.0)
    try:
        with pytest.raises(AuthenticationError, match="requires authentication"):
            _request(probe, {"op": "submit", "text": ONE_ROW})
        # hello alone is answered anonymously (a coordinator's probe)
        header, _ = _request(probe, {"op": "hello"})
        assert header["auth_required"] is True and header["user"] is None
    finally:
        probe.close()
    assert auth_server.jobs() == []


def test_credentialed_hello_is_one_more_identifying_frame(auth_server):
    probe = open_connection(auth_server.address, 5.0, 5.0)
    try:
        hello = {"op": "hello", "user": "alice", "token": "s3cret"}
        header, _ = _request(probe, hello)
        assert header["user"] == "alice"
        reply, _ = _request(probe, {"op": "mydb", "action": "list"})
        assert reply["tables"] == []
    finally:
        probe.close()


def test_first_frame_identity_scopes_job_ownership(auth_server):
    """A job submitted on an identified first frame belongs to that
    user: another tenant's one-frame cancel is refused, the owner's
    cancels it."""
    owner = open_connection(auth_server.address, 5.0, 5.0)
    try:
        accepted, _ = _request(
            owner,
            {
                "op": "submit",
                "text": "SELECT objid FROM photo",
                "user": "alice",
                "token": USERS["alice"],
            },
        )
        job_id = accepted["job_id"]

        def one_frame_cancel(user):
            with open_connection(auth_server.address, 5.0, 5.0) as side:
                frame = {"op": "cancel", "job_id": job_id}
                return _request(side, {**frame, "user": user, "token": USERS[user]})[0]

        with pytest.raises(AuthenticationError, match="another user"):
            one_frame_cancel("bob")
        assert one_frame_cancel("alice")["known"] is True
    finally:
        owner.close()
    (job,) = auth_server.jobs()
    assert job.user == "alice"
    assert job.wait(timeout=10.0).value == "cancelled"


def test_owner_side_channel_cancel_reaches_a_queued_batch_job(photo):
    """The victim's streaming socket is blocked behind the running
    batch job; only the side channel (a connection of its own that
    says who asks) can reach it."""
    store = ContainerStore.from_table(photo, depth=3)
    store.sweeper().throttle = 0.012  # a page a step: ~1 s a lap
    server = ArchiveServer(stores={"photo": store}, auth=USERS).start()
    # The victim's first fetch reaches the server only after its client
    # holds the server-side job id, so from then on its cancel can name
    # the job on the side channel.
    victim_fetching = threading.Event()
    handle_fetch = server._handle_fetch

    def noting_fetch(sock, header, conn):
        if conn.effective_user == "alice":
            victim_fetching.set()
        handle_fetch(sock, header, conn)

    server._handle_fetch = noting_fetch
    blocker_session = Archive.connect(url_for(server, "bob"))
    victim_session = Archive.connect(url_for(server, "alice"))
    try:
        blocker = blocker_session.submit("SELECT objid FROM photo", query_class="batch")
        victim = victim_session.submit(
            "SELECT objid FROM photo WHERE mag_r < 19", query_class="batch"
        )
        assert victim_fetching.wait(timeout=10.0)
        assert len(server.jobs()) == 2
        victim.cancel()
        assert victim.wait(timeout=10.0).value == "cancelled"
        (server_victim,) = [j for j in server.jobs() if "mag_r < 19" in j.text]
        assert server_victim.user == "alice"
        assert server_victim.wait(timeout=10.0).value == "cancelled"
        assert blocker.wait(timeout=60).value == "done"
    finally:
        blocker_session.close()
        victim_session.close()
        server.stop()


# ----------------------------------------------------------------------
# a tier cannot sit client-side of an opaque backend
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "tier_kwargs",
    [{"cache": True}, {"cache": 1 << 20}, {"service": ServiceTier(cache=True)}],
    ids=["cache", "cache-bytes", "service"],
)
def test_client_side_tier_on_archive_url_is_an_error(archive_server, tier_kwargs):
    with pytest.raises(SessionError, match=r"ArchiveServer\(cache="):
        Archive.connect(archive_server.url, **tier_kwargs)


def test_identity_and_query_log_keywords_still_work_for_urls(auth_server, tmp_path):
    host, port = auth_server.address
    log_path = tmp_path / "queries.jsonl"
    with Archive.connect(
        f"archive://{host}:{port}",
        user="alice",
        token="s3cret",
        query_log=str(log_path),
        cache=False,
    ) as session:
        assert len(session.query_table(ONE_ROW)) == 1
        assert session.my_tables() == []
    assert log_path.read_text().count("\n") == 1


# ----------------------------------------------------------------------
# one recv bound for one-shot exchanges
# ----------------------------------------------------------------------


@pytest.fixture()
def mute_listener():
    """Connects (the kernel queues the handshake) and never answers."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        yield listener.getsockname()


@pytest.mark.parametrize("op", ["hello", "stats", "prepare", "mydb"])
def test_every_one_shot_exchange_is_bounded_by_the_same_rule(mute_listener, op):
    """``timeout`` when the caller set one (else ``CONTROL_TIMEOUT``) —
    not ``connect_timeout`` for hello and something else for the rest."""
    host, port = mute_listener
    assert ServerLink.CONTROL_TIMEOUT == 30.0
    executor = RemoteExecutor(host, port, connect_timeout=30.0, timeout=0.2)
    executor.link.retry.attempts = 1
    call = {
        "hello": executor.hello,
        "stats": executor.stats,
        "prepare": lambda: executor.prepare(ONE_ROW).root.remote_plan,
        "mydb": lambda: executor.mydb_op("list"),
    }[op]
    started = time.perf_counter()
    with pytest.raises(OSError):
        call()
    assert time.perf_counter() - started < 5.0
