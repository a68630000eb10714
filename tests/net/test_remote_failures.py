"""Failure modes of the network hop: crashes, cancels, shared sweeps.

The contract under test:

* a server killed mid-stream surfaces as a *FAILED* job with the
  connection error as its cause — never a hang;
* ``Job.cancel()`` on the client stops the *server-side* QET threads
  promptly (no orphans — mirroring tests/session/test_cancel_threads.py
  across the wire);
* two remote clients scanning one store share a single sweep: physical
  reads stay ~1 store pass (the PR 3 read-amplification win must
  survive the network hop);
* connecting to a dead endpoint fails fast;
* a remote query is submitted when it starts: the bound on the
  ``submit`` reply covers parse and plan only (an INTO slower than it
  still completes), and a queued batch job is described once it starts;
* ``stop()`` racing a stream of connects joins every connection thread
  it knows of and refuses the rest — it never joins one not yet started.
"""

import socket
import sys
import threading
import time

import pytest

from repro.catalog.table import ObjectTable
from repro.net import ArchiveServer
from repro.net.client import ServerLink
from repro.query.errors import ExecutionError
from repro.session import Archive, Session
from repro.storage import ContainerStore

JOIN_TIMEOUT = 10.0


def _throttled_server(photo, depth=3, throttle=0.012):
    """A fresh server whose store sweeps slowly enough (``throttle``
    seconds a page: about a second a lap at depth 3) that streams are
    reliably in flight when the test interferes with them."""
    store = ContainerStore.from_table(photo, depth=depth)
    store.sweeper().throttle = throttle
    server = ArchiveServer(stores={"photo": store}).start()
    return server, store


def _wait_until(predicate, timeout=JOIN_TIMEOUT, interval=0.02):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _where_stalled(client_job, server):
    """Where a job that should have finished stalled: its client-side
    state and every server job's state, rows and still-running nodes."""
    server_jobs = [
        (job.text, job.state.value, job.rows, [n.name for n in job.alive_nodes()])
        for job in server.jobs()
    ]
    return (
        f"client job {client_job.state.value} with {client_job.rows} rows; "
        f"server jobs (text, state, rows, alive nodes): {server_jobs}"
    )


class TestServerDeath:
    def test_killed_mid_stream_fails_the_job(self, photo):
        server, _store = _throttled_server(photo)
        session = Archive.connect(server.url)
        try:
            job = session.submit("SELECT objid FROM photo")
            iterator = iter(job.cursor)
            first = next(iterator, None)
            assert first is not None and len(first) > 0
            server.stop()  # the crash
            with pytest.raises(ExecutionError):
                for _batch in iterator:
                    pass
            assert job.state.value == "failed"
            assert job.error is not None
            # Either observable form of the crash is correct: the broken
            # socket ("died mid-stream"), or — when a fetch round lands
            # in stop()'s cancel-before-shutdown window — the structured
            # ended-cancelled-mid-stream error.  What must never happen
            # is a clean DONE over the truncated prefix.
            assert "mid-stream" in str(job.error)
            job.join(JOIN_TIMEOUT)
            assert job.alive_nodes() == []
        finally:
            session.close()
            server.stop()

    def test_dead_endpoint_fails_fast_not_hangs(self):
        session = Archive.connect("archive://127.0.0.1:1")
        started = time.perf_counter()
        with pytest.raises(OSError):
            session.submit("SELECT objid FROM photo")
        assert time.perf_counter() - started < 30.0
        session.close()

    def test_stop_racing_connects_joins_only_started_threads(self, photo_store):
        """Connection threads are registered and started under the lock
        ``stop()`` snapshots under; registered first and started after,
        ``stop()`` sometimes joined an unstarted thread and raised."""
        stores = {"photo": photo_store}
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # widen any register-then-start gap
        errors = []
        try:
            for _round in range(25):
                server = ArchiveServer(stores=stores).start()
                done = threading.Event()

                def connect_until_refused(address=server.address, done=done):
                    while not done.is_set():
                        try:
                            socket.create_connection(address, timeout=1.0).close()
                        except OSError:
                            return

                clients = [
                    threading.Thread(target=connect_until_refused) for _ in range(6)
                ]
                for client in clients:
                    client.start()
                try:
                    server.stop()
                except RuntimeError as exc:
                    errors.append(exc)
                done.set()
                for client in clients:
                    client.join(JOIN_TIMEOUT)
                    assert not client.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert errors == []


class TestRemoteCancel:
    def test_cancel_stops_server_side_threads(self, photo):
        """The cross-wire twin of test_cancel_threads: no orphan QET
        threads in the *server* process after a client cancel."""
        server, store = _throttled_server(photo)
        session = Archive.connect(server.url)
        try:
            job = session.submit("SELECT objid FROM photo")
            iterator = iter(job.cursor)
            next(iterator, None)
            job.cancel()
            job.join(JOIN_TIMEOUT)
            assert job.alive_nodes() == []
            assert job.state.value == "cancelled"

            server_jobs = server.jobs()
            assert server_jobs, "the submission must exist server-side"
            server_job = server_jobs[-1]
            assert _wait_until(lambda: server_job.state.is_terminal())
            server_job.join(JOIN_TIMEOUT)
            assert server_job.alive_nodes() == [], (
                "client cancel left orphan QET threads on the server"
            )
            # The shared sweep sheds the cancelled subscription too.
            assert _wait_until(
                lambda: store.sweeper().active_subscriptions() == 0
            )
        finally:
            session.close()
            server.stop()

    def test_cancel_of_batch_job_queued_server_side(self, photo):
        """Batch jobs from different clients serialize through the
        *server's* one batch machine; cancelling one that is still
        waiting in that queue must take effect promptly — the
        out-of-band cancel path, since the victim's streaming socket is
        blocked behind the running job."""
        server, _store = _throttled_server(photo)
        blocker_session = Archive.connect(server.url)
        victim_session = Archive.connect(server.url)
        try:
            blocker = blocker_session.submit(
                "SELECT objid FROM photo", query_class="batch"
            )
            victim = victim_session.submit(
                "SELECT objid FROM photo WHERE mag_r < 19", query_class="batch"
            )
            # Wait until the victim reached the server (it is queued
            # behind the blocker on the server's batch machine).
            assert _wait_until(lambda: len(server.jobs()) == 2)
            victim.cancel()
            assert victim.wait(timeout=JOIN_TIMEOUT).value == "cancelled"
            server_victim = [
                j for j in server.jobs() if "mag_r < 19" in j.text
            ][0]
            assert _wait_until(lambda: server_victim.state.is_terminal())
            assert server_victim.state.value == "cancelled"
            # The blocker is unaffected and completes normally.
            assert blocker.wait(timeout=60).value == "done", _where_stalled(
                blocker, server
            )
            assert len(blocker.cursor.to_table()) == len(photo)
        finally:
            blocker_session.close()
            victim_session.close()
            server.stop()

    def test_disconnect_cancels_running_jobs(self, photo):
        """A client that vanishes (session close mid-stream) must not
        leak server-side work."""
        server, store = _throttled_server(photo)
        session = Archive.connect(server.url)
        job = session.submit("SELECT objid FROM photo")
        next(iter(job.cursor), None)
        session.close()  # cancels the job -> wire cancel + socket down
        try:
            server_job = server.jobs()[-1]
            assert _wait_until(lambda: server_job.state.is_terminal())
            server_job.join(JOIN_TIMEOUT)
            assert server_job.alive_nodes() == []
        finally:
            server.stop()


class TestSharedSweepAcrossClients:
    def test_two_remote_clients_share_one_sweep(self, photo):
        """Concurrent remote clients ride one server-side sweep: physical
        container reads ~ one store pass, not one per client."""
        server, store = _throttled_server(photo, depth=3, throttle=0.006)
        n_containers = len(store.snapshot.pages())
        query = "SELECT objid, mag_r FROM photo"
        sessions = [Archive.connect(server.url) for _ in range(2)]
        try:
            jobs = [session.submit(query) for session in sessions]
            tables = [None, None]

            def drain(index):
                tables[index] = jobs[index].cursor.to_table()

            threads = [
                threading.Thread(target=drain, args=(k,)) for k in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)

            for table in tables:
                assert isinstance(table, ObjectTable)
                assert len(table) == len(photo)

            # Read amplification ~= 1.0x: the two clients' rows came off
            # one shared sweep + buffer pool, not two private passes.
            physical_reads = store.buffer_pool.stats.misses
            amplification = physical_reads / n_containers
            assert amplification <= 1.5, (
                f"two remote clients cost {amplification:.2f} store passes"
            )
            # The sweep was genuinely shared and the telemetry crossed
            # the wire: each client sees the store-lifetime sharing.
            for job in jobs:
                report = job.io_report()
                assert report["sweep_sharing_factor"] is not None
                assert report["sweep_sharing_factor"] > 1.3
                assert (
                    report["containers_read"] + report["containers_from_pool"]
                    >= n_containers
                )
        finally:
            for session in sessions:
                session.close()
            server.stop()


class TestServerStaysBounded:
    def test_a_job_out_of_the_retired_window_leaves_the_session(
        self, fresh_stores, monkeypatch
    ):
        """Regression: the server retired finished jobs into a bounded
        window, but its one session kept every job it ever ran — QET,
        and for a cache-fill job a second copy of the result."""
        window = 4
        monkeypatch.setattr(Session, "_FINISHED_JOBS", window)
        with ArchiveServer(stores=fresh_stores, cache=True) as server:
            for limit in range(1, window + 4):
                with Archive.connect(server.url) as session:
                    table = session.query_table(
                        f"SELECT objid FROM photo ORDER BY objid LIMIT {limit}"
                    )
                    assert len(table) == limit
            assert _wait_until(lambda: len(server._jobs) == 0)
            served = server.jobs()
            assert len(served) == window
            assert sorted(server.session.jobs, key=id) == sorted(served, key=id)
            assert all(job._collected == [] for job in served)
            ids = [job.job_id for job in served]
            assert len(set(ids)) == window  # forgetting never reuses an id
            # what the ``stats`` op publishes for this session (the
            # registry itself sums every session alive in this process)
            assert server.session._published_metrics()["session.jobs"] == window
            with Archive.connect(server.url) as session:
                assert session.server_stats()["server"]["jobs_retired"] == window


class TestSubmitAtStart:
    def test_an_into_slower_than_the_submit_bound_completes(
        self, photo, monkeypatch
    ):
        """The server answers ``accepted`` before it runs an INTO, so the
        bound on that reply covers parse and plan only: an INTO slower
        than the bound completes, and the client's job state matches
        the server's."""
        bound = 0.25
        monkeypatch.setattr(ServerLink, "CONTROL_TIMEOUT", bound)
        server, _store = _throttled_server(photo)
        session = Archive.connect(server.url)
        try:
            started = time.perf_counter()
            job = session.submit(
                "SELECT objid, mag_r INTO mydb.slow FROM photo WHERE mag_r < 16"
            )
            saved = job.cursor.to_table()
            assert job.wait(timeout=60).value == "done", job.error
            assert time.perf_counter() - started > 2 * bound
            (server_job,) = server.jobs()
            assert server_job.state.value == "done"
            assert server_job.rows == len(saved) > 0
            assert session.my_tables() == ["slow"]
        finally:
            session.close()
            server.stop()

    def test_a_queued_batch_job_is_described_when_it_starts(self, photo):
        """A remote query's schema and reports come with the server's
        ``accepted`` reply, so a batch job still queued on the client
        has none yet; they are there once it has run."""
        server, _store = _throttled_server(photo)
        session = Archive.connect(server.url)
        try:
            blocker = session.submit("SELECT objid FROM photo", query_class="batch")
            queued = session.submit(
                "SELECT objid, mag_r FROM photo WHERE mag_r < 16",
                query_class="batch",
            )
            assert queued.state.value == "queued"
            assert queued.static_schema is None
            assert queued.cursor.schema is None
            assert queued.reports == []
            assert blocker.wait(timeout=60).value == "done"
            assert queued.wait(timeout=60).value == "done"
            assert queued.static_schema.field_names() == ["objid", "mag_r"]
            assert queued.cursor.schema == queued.static_schema
        finally:
            session.close()
            server.stop()
