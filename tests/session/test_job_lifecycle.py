"""Job lifecycle: states, batch FIFO admission, cancellation, failure.

Uses the real engines where timing doesn't matter, and a stub
:class:`Executor` (proving the protocol is enough to plug in a new
backend) with gate-controlled QET nodes where the tests need to freeze a
job mid-run.
"""

import gc
import sys
import threading
import time
import tracemalloc

import pytest

from repro.catalog.table import ObjectTable
from repro.query.errors import ExecutionError
from repro.query.qet import QETNode
from repro.session import (
    Archive,
    Executor,
    JobCancelledError,
    JobState,
    PreparedQuery,
    Session,
    SessionError,
)


def _wait_for(predicate, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class GateNode(QETNode):
    """Emits its batches, then idles until its gate opens (or the node
    is cancelled) — a controllable long-running query."""

    name = "gate"

    def __init__(self, batches, gate):
        super().__init__(())
        self.batches = list(batches)
        self.gate = gate

    def run(self):
        for batch in self.batches:
            if not self._emit(batch):
                return
        while not self.gate.is_set() and not self.output.cancelled():
            time.sleep(0.005)


class SlowStartNode(GateNode):
    """A :class:`GateNode` whose ``start()`` sets ``entered`` and then
    waits for ``release``: a window in which its job is RUNNING but the
    tree has not started."""

    def __init__(self, batches, gate, entered, release):
        super().__init__(batches, gate)
        self.entered = entered
        self.release = release

    def start(self):
        self.entered.set()
        self.release.wait(10)
        super().start()


class FailingNode(QETNode):
    """Raises mid-execution; the error must surface as a FAILED job."""

    name = "failing"

    def run(self):
        raise RuntimeError("synthetic node failure")


class FailAfterNode(QETNode):
    """Emits its batches, then raises: a stream that fails part-way."""

    name = "fail-after"

    def __init__(self, batches):
        super().__init__(())
        self.batches = list(batches)

    def run(self):
        for batch in self.batches:
            if not self._emit(batch):
                return
        raise RuntimeError("synthetic failure after the batches")


class StubExecutor(Executor):
    """Executor-protocol backend whose root factory the test controls."""

    kind = "stub"

    def __init__(self, make_root, schema):
        self.make_root = make_root
        self.schema = schema

    def prepare(self, text, allow_tag_route=True):
        return PreparedQuery(text=text, root=self.make_root(text), schema=self.schema)


@pytest.fixture()
def small_batches(photo):
    return [
        ObjectTable(photo.schema, photo.data[:50].copy()),
        ObjectTable(photo.schema, photo.data[50:90].copy()),
    ]


class TestInteractiveLifecycle:
    def test_runs_immediately_and_completes(self, local_session):
        job = local_session.submit("SELECT objid FROM photo WHERE mag_r < 18")
        assert job.state is JobState.RUNNING
        table = job.cursor.to_table()
        assert job.state is JobState.DONE
        assert job.rows == len(table) > 0
        assert job.time_to_first_row is not None
        assert job.time_to_first_row <= job.time_to_completion

    def test_per_node_stats_exposed(self, dist_session):
        job = dist_session.submit("SELECT objid FROM photo WHERE mag_r < 17")
        job.cursor.to_table()
        stats = job.node_stats()
        assert stats
        assert sum(s.rows_out for s in stats.values()) > 0

    def test_distributed_job_reports_fanout(self, dist_session):
        job = dist_session.submit("SELECT objid FROM photo WHERE CIRCLE(40, 30, 5)")
        job.cursor.to_table()
        assert len(job.reports) == 1
        assert job.reports[0].servers_total == 3


class TestBatchQueueing:
    def test_fifo_one_at_a_time(self, photo, small_batches):
        gate = threading.Event()
        open_gate = threading.Event()
        open_gate.set()
        executor = StubExecutor(
            lambda text: GateNode(
                small_batches, open_gate if text == "interactive" else gate
            ),
            photo.schema,
        )
        with Session(executor) as session:
            job1 = session.submit("q1", query_class="batch")
            job2 = session.submit("q2", query_class="batch")
            assert _wait_for(lambda: job1.state is JobState.RUNNING)
            # Exclusive batch machine: job2 must wait its turn.
            assert job2.state is JobState.QUEUED
            # Interactive work never queues behind batch work: it starts
            # at submission and finishes while the batch machine is held.
            quick = session.submit("interactive")
            assert len(quick.cursor.to_table()) == 90
            assert quick.wait(timeout=5) is JobState.DONE
            assert job1.state is JobState.RUNNING
            assert job2.state is JobState.QUEUED
            gate.set()
            assert job1.wait(timeout=5) is JobState.DONE
            assert job2.wait(timeout=5) is JobState.DONE
            assert len(job1.cursor.to_table()) == 90
            assert len(job2.cursor.to_table()) == 90

    def test_cancel_queued_job_never_runs(self, photo, small_batches):
        gate = threading.Event()
        executor = StubExecutor(
            lambda text: GateNode(small_batches, gate), photo.schema
        )
        with Session(executor) as session:
            job1 = session.submit("hold", query_class="batch")
            job2 = session.submit("doomed", query_class="batch")
            assert _wait_for(lambda: job1.state is JobState.RUNNING)
            job2.cancel()
            assert job2.state is JobState.CANCELLED
            with pytest.raises(JobCancelledError):
                job2.cursor.to_table()
            gate.set()
            assert job1.wait(timeout=5) is JobState.DONE
            # The dispatcher skipped the cancelled job: it never started.
            assert job2.rows == 0
            assert job2.node_stats() == {}

    def test_batch_read_without_wait_delivers_everything(
        self, photo, small_batches
    ):
        # Reading a batch cursor while the dispatcher is still draining
        # must block until completion and deliver the full result, never
        # a silent partial prefix.
        gate = threading.Event()
        executor = StubExecutor(
            lambda text: GateNode(small_batches, gate), photo.schema
        )
        with Session(executor) as session:
            job = session.submit("held", query_class="batch")
            assert _wait_for(lambda: job.state is JobState.RUNNING)
            # Open the gate shortly *after* the read below has started.
            threading.Timer(0.2, gate.set).start()
            table = job.cursor.to_table()  # no wait() first
            assert len(table) == 90
            assert job.state is JobState.DONE

    def test_batch_results_delivered_on_completion(self, local_session):
        query = "SELECT objtype, COUNT(objid) AS n FROM photo GROUP BY objtype"
        job = local_session.submit(query, query_class="batch")
        assert job.wait(timeout=10) is JobState.DONE
        expected = local_session.query_table(query)
        got = job.cursor.to_table()
        assert got.data.tolist() == expected.data.tolist()


class RecordingNode(GateNode):
    """A :class:`GateNode` that logs when it starts and ends, and how
    many recording nodes were running at its start."""

    def __init__(self, batches, gate, label, log):
        super().__init__(batches, gate)
        self.label = label
        self.log = log

    def run(self):
        with self.log["lock"]:
            self.log["running"] += 1
            self.log["starts"].append((self.label, self.log["running"]))
        try:
            super().run()
        finally:
            with self.log["lock"]:
                self.log["running"] -= 1


def _run_log():
    return {"lock": threading.Lock(), "running": 0, "starts": []}


class TestLiveScheduling:
    """The paper's split, held on the live session: the scan machine is
    interactively scheduled, the batch machine runs one job at a time."""

    def test_interactive_jobs_run_side_by_side(self, photo, small_batches):
        gate = threading.Event()
        log = _run_log()
        executor = StubExecutor(
            lambda text: RecordingNode(small_batches, gate, text, log),
            photo.schema,
        )
        with Session(executor) as session:
            jobs = [session.submit(f"i{k}") for k in range(3)]
            # None waits for another: all three hold their node at once.
            assert _wait_for(lambda: len(log["starts"]) == 3)
            assert all(job.state is JobState.RUNNING for job in jobs)
            assert log["running"] == 3
            gate.set()
            for job in reversed(jobs):
                assert len(job.cursor.to_table()) == 90
                assert job.wait(timeout=5) is JobState.DONE

    def test_batch_jobs_run_one_at_a_time_in_submission_order(
        self, photo, small_batches
    ):
        gate = threading.Event()
        log = _run_log()
        executor = StubExecutor(
            lambda text: RecordingNode(small_batches, gate, text, log),
            photo.schema,
        )
        with Session(executor) as session:
            jobs = [session.submit(f"b{k}", query_class="batch") for k in range(4)]
            assert _wait_for(lambda: jobs[0].state is JobState.RUNNING)
            assert [job.state for job in jobs[1:]] == [JobState.QUEUED] * 3
            gate.set()
            for job in jobs:
                assert job.wait(timeout=5) is JobState.DONE
        # Each batch job started alone, in the order it was submitted.
        assert log["starts"] == [(f"b{k}", 1) for k in range(4)]

    def test_a_held_interactive_job_does_not_hold_up_batch_work(
        self, photo, small_batches
    ):
        gate = threading.Event()
        open_gate = threading.Event()
        open_gate.set()
        executor = StubExecutor(
            lambda text: GateNode(
                small_batches, gate if text == "held" else open_gate
            ),
            photo.schema,
        )
        with Session(executor) as session:
            held = session.submit("held")
            batch = session.submit("batch", query_class="batch")
            assert batch.wait(timeout=5) is JobState.DONE
            assert len(batch.cursor.to_table()) == 90
            assert held.state is JobState.RUNNING
            gate.set()
            assert len(held.cursor.to_table()) == 90

    def test_cancelling_the_running_batch_job_frees_the_machine(
        self, photo, small_batches
    ):
        gate = threading.Event()
        executor = StubExecutor(
            lambda text: GateNode(small_batches, gate), photo.schema
        )
        with Session(executor) as session:
            job1 = session.submit("held", query_class="batch")
            job2 = session.submit("next", query_class="batch")
            assert _wait_for(lambda: job1.state is JobState.RUNNING)
            assert job2.state is JobState.QUEUED
            job1.cancel()
            assert job1.state is JobState.CANCELLED
            # What it produced stays readable, even while the dispatcher
            # is still winding its drain down.
            assert len(job1.cursor.to_table()) <= 90
            # The dispatcher moves on without the gate ever opening.
            assert _wait_for(lambda: job2.state is JobState.RUNNING)
            gate.set()
            assert job2.wait(timeout=5) is JobState.DONE
            assert len(job2.cursor.to_table()) == 90

    def test_a_cancel_while_the_tree_starts_leaves_it_readable(
        self, photo, small_batches
    ):
        gate, entered, release = (threading.Event() for _ in range(3))
        executor = StubExecutor(
            lambda text: SlowStartNode(small_batches, gate, entered, release),
            photo.schema,
        )
        with Session(executor) as session:
            job = session.submit("starting", query_class="batch")
            assert entered.wait(timeout=5)
            job.cancel()
            assert job.state is JobState.CANCELLED
            # The read begins inside the window and waits the start out:
            # the job started, so it reads what the tree produced.
            opener = threading.Timer(0.2, release.set)
            opener.start()
            table = job.cursor.to_table()
            opener.join()
            assert len(table) <= 90
            assert table.schema == photo.schema
            assert job.node_stats()
            job.join(timeout=5)
            assert job.alive_nodes() == []

    def test_a_cancel_racing_the_start_never_hides_a_started_job(
        self, photo, small_batches
    ):
        open_gate = threading.Event()
        open_gate.set()
        executor = StubExecutor(
            lambda text: GateNode(small_batches, open_gate), photo.schema
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Session(executor) as session:
                for round_no in range(60):
                    job = session.submit(f"b{round_no}", query_class="batch")
                    time.sleep((round_no % 6) * 1e-4)
                    job.cancel()
                    try:
                        table = job.cursor.to_table()
                    except JobCancelledError:
                        # Only a job whose tree never started reads so.
                        assert job.node_stats() == {}
                    else:
                        assert len(table) <= 90
                    job.join(timeout=5)
                    assert job.alive_nodes() == []
        finally:
            sys.setswitchinterval(interval)

    def test_a_failed_batch_job_frees_the_machine(self, photo, small_batches):
        open_gate = threading.Event()
        open_gate.set()
        executor = StubExecutor(
            lambda text: FailingNode()
            if text == "boom"
            else GateNode(small_batches, open_gate),
            photo.schema,
        )
        with Session(executor) as session:
            failed = session.submit("boom", query_class="batch")
            after = session.submit("after", query_class="batch")
            assert failed.wait(timeout=5) is JobState.FAILED
            assert after.wait(timeout=5) is JobState.DONE
            assert len(after.cursor.to_table()) == 90


class TestFailure:
    def test_interactive_failure(self, photo):
        executor = StubExecutor(lambda text: FailingNode(), photo.schema)
        with Session(executor) as session:
            job = session.submit("boom")
            with pytest.raises(ExecutionError):
                job.cursor.to_table()
            assert job.state is JobState.FAILED
            assert job.error is not None

    def test_batch_failure(self, photo):
        executor = StubExecutor(lambda text: FailingNode(), photo.schema)
        with Session(executor) as session:
            job = session.submit("boom", query_class="batch")
            assert job.wait(timeout=5) is JobState.FAILED
            assert job.error is not None
            with pytest.raises(ExecutionError):
                job.cursor.to_table()

    def test_batch_failure_keeps_the_partial_rows(self, photo, small_batches):
        executor = StubExecutor(lambda text: FailAfterNode(small_batches), photo.schema)
        with Session(executor) as session:
            job = session.submit("boom", query_class="batch")
            page = job.cursor.fetchmany(90)
            assert page["objid"].tolist() == photo["objid"][:90].tolist()
            assert job.state is JobState.FAILED
            with pytest.raises(ExecutionError):
                job.cursor.fetchmany(1)

    def test_a_failing_read_keeps_the_rows_it_gathered(self, photo, small_batches):
        """Regression: a read asking for more rows than the stream made
        before failing dropped them with the error."""
        executor = StubExecutor(lambda text: FailAfterNode(small_batches), photo.schema)
        with Session(executor) as session:
            job = session.submit("boom")
            with pytest.raises(ExecutionError):
                job.cursor.fetchmany(1000)
            page = job.cursor.fetchmany(90)
            assert page["objid"].tolist() == photo["objid"][:90].tolist()
            with pytest.raises(ExecutionError):
                job.cursor.fetchmany(1)

    def test_interactive_failure_raises_on_every_read(self, photo, small_batches):
        executor = StubExecutor(lambda text: FailAfterNode(small_batches), photo.schema)
        with Session(executor) as session:
            job = session.submit("boom")
            with pytest.raises(ExecutionError):
                job.cursor.to_table()
            assert job.state is JobState.FAILED
            # A failed stream is never mistaken for an empty one.
            with pytest.raises(ExecutionError):
                job.cursor.to_table()


class TestSessionStaysBounded:
    def test_a_local_session_forgets_all_but_its_recent_finished_jobs(
        self, engine
    ):
        """Regression: a local session kept every job it ever ran (its
        QET node threads, streams and range sets, ~39 KB each)."""
        window = Session._FINISHED_JOBS
        cone = "SELECT objid FROM photo WHERE CIRCLE(40, 30, 2)"

        def run(count):
            for _ in range(count):
                session.query_table(cone)
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        with Archive.connect(engine) as session:
            expected = session.query_table(cone)
            finished = session.submit(cone)
            finished.cursor.fetchall()
            live = session.submit(cone)  # never drained: stays RUNNING
            tracemalloc.start()
            try:
                after_one = run(window)
                after_three = run(2 * window)
            finally:
                tracemalloc.stop()
            jobs = session.jobs
            assert len(jobs) <= window + 1
            assert live in jobs and finished not in jobs
            assert after_three - after_one < 4 * 2**20
            # Forgotten is not broken: what the caller holds still works.
            assert finished.state is JobState.DONE
            assert finished.io_report()["containers_read"] >= 0
            assert finished.trace().spans
            assert live.cursor.to_table().data.tolist() == expected.data.tolist()
            assert session.explain_analyze(cone).kind


class TestSubmissionValidation:
    def test_unknown_query_class(self, local_session):
        with pytest.raises(SessionError):
            local_session.submit("SELECT objid FROM photo", query_class="cosmic")

    @pytest.mark.parametrize("machine", ["sweep", "scan", "hash", "river"])
    def test_machine_names_are_not_query_classes(self, local_session, machine):
        # A submission names how it is scheduled, not a machine.
        with pytest.raises(SessionError, match="unknown query class"):
            local_session.submit("SELECT objid FROM photo", query_class=machine)
        assert Session.QUERY_CLASSES == ("interactive", "batch")

    def test_closed_session_rejects(self, engine):
        session = Archive.connect(engine)
        session.close()
        with pytest.raises(SessionError):
            session.submit("SELECT objid FROM photo")
