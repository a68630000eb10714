"""Fair-share batch dispatch: deficit round robin + admission quotas.

Every fairness assertion is on deterministic queue counters
(dispatch order, per-user dispatch counts, round numbers) — never on
wall clocks.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.catalog.table import ObjectTable
from repro.machines.scheduler import DeficitRoundRobin
from repro.query.qet import QETNode
from repro.service import ServiceTier
from repro.service.errors import QuotaExceededError
from repro.session import Archive, Executor, JobState, PreparedQuery, Session


class TestDeficitRoundRobin:
    def test_single_user_is_fifo(self):
        queue = DeficitRoundRobin()
        for index in range(5):
            queue.put("only", index)
        queue.close()
        drained = []
        while (item := queue.get()) is not None:
            drained.append(item[1])
        assert drained == [0, 1, 2, 3, 4]
        assert queue.dispatched == {"only": 5}

    def test_flood_cannot_starve_a_light_user(self):
        queue = DeficitRoundRobin()
        for index in range(10):
            queue.put("flood", index)
        queue.put("light", "the-one")
        queue.close()
        order = []
        while (item := queue.get()) is not None:
            order.append(item[0])
        # Strict alternation until the light user drains: the light
        # user's single item is dispatched on the first full pass, not
        # behind the flood's ten.
        assert order.index("light") <= 1
        assert queue.dispatched == {"flood": 10, "light": 1}

    def test_rounds_bound_the_wait(self):
        # No-starvation guarantee: an item of cost c waits at most
        # ceil(c / quantum) rounds after its user joins the rotation.
        queue = DeficitRoundRobin(quantum=1.0)
        for index in range(6):
            queue.put("flood", index)
        queue.put("heavy", "big-job", cost=3.0)
        queue.close()
        heavy_round = None
        joined_round = 0
        while (item := queue.get()) is not None:
            user, _payload, round_no = item
            if user == "heavy":
                heavy_round = round_no
        assert heavy_round is not None
        assert heavy_round - joined_round <= 3  # ceil(3.0 / 1.0)

    def test_idle_user_forfeits_deficit(self):
        queue = DeficitRoundRobin()
        queue.put("a", 1)
        assert queue.get()[0] == "a"
        # "a" drained and left the rotation; rejoining starts from zero
        # deficit rather than banking credit from earlier rounds.
        for index in range(4):
            queue.put("b", index)
        queue.put("a", 2)
        queue.close()
        order = [item[0] for item in iter(queue.get, None)]
        assert order.count("a") == 1 and order.count("b") == 4
        assert order.index("a") <= 1

    def test_close_then_drain(self):
        queue = DeficitRoundRobin()
        queue.put("u", "queued-before-close")
        queue.close()
        assert queue.get() is not None  # items survive close
        assert queue.get() is None  # then the terminal None
        with pytest.raises(RuntimeError):
            queue.put("u", "rejected-after-close")

    def test_pending_counts(self):
        queue = DeficitRoundRobin()
        queue.put("a", 1)
        queue.put("a", 2)
        queue.put("b", 3)
        assert queue.pending("a") == 2
        assert queue.pending("b") == 1
        assert queue.pending() == 3

    def test_a_larger_quantum_dispatches_in_bursts(self):
        # Unit costs against a quantum of two: each visit serves two of
        # a user's items before the rotation moves on.
        queue = DeficitRoundRobin(quantum=2.0)
        for index in range(4):
            queue.put("a", index)
            queue.put("b", index)
        queue.close()
        drained = list(iter(queue.get, None))
        assert [user for user, _item, _round in drained] == list("aabbaabb")
        assert [item for _user, item, _round in drained] == [0, 1, 0, 1, 2, 3, 2, 3]
        assert [round_no for _user, _item, round_no in drained] == [0] * 4 + [1] * 4
        assert queue.rounds == 1

    def test_get_waits_for_a_put(self):
        queue = DeficitRoundRobin()
        got = []
        getter = threading.Thread(target=lambda: got.append(queue.get()))
        getter.start()
        time.sleep(0.05)
        assert got == []  # nothing queued yet: the getter blocks
        queue.put("u", "late")
        getter.join(timeout=5)
        assert got == [("u", "late", 0)]

    def test_close_wakes_a_blocked_getter(self):
        queue = DeficitRoundRobin()
        got = []
        getter = threading.Thread(target=lambda: got.append(queue.get()))
        getter.start()
        time.sleep(0.05)
        queue.close()
        getter.join(timeout=5)
        assert not getter.is_alive()
        assert got == [None]


class _HeldNode(QETNode):
    """Logs its label when it starts, then emits one batch once the
    gate opens — a batch job that holds the batch machine on demand."""

    name = "held"

    def __init__(self, batch, gate, label, started):
        super().__init__(())
        self.batch, self.gate = batch, gate
        self.label, self.started = label, started

    def run(self):
        self.started.append(self.label)
        while not self.gate.is_set() and not self.output.cancelled():
            time.sleep(0.005)
        self._emit(self.batch)


class _HeldExecutor(Executor):
    """Executor whose every query is a :class:`_HeldNode` labelled by
    the query text."""

    kind = "stub"

    def __init__(self, photo, gate):
        self.batch = ObjectTable(photo.schema, photo.data[:10].copy())
        self.gate = gate
        self.started = []

    def prepare(self, text, allow_tag_route=True):
        root = _HeldNode(self.batch, self.gate, text, self.started)
        return PreparedQuery(text=text, root=root, schema=self.batch.schema)


def _wait_running(job, timeout=5.0):
    deadline = time.monotonic() + timeout
    while job.state is not JobState.RUNNING and time.monotonic() < deadline:
        time.sleep(0.005)
    assert job.state is JobState.RUNNING


class TestSessionFairShare:
    def test_batch_jobs_carry_user_and_round(self, fresh_engine):
        tier = ServiceTier()
        with Archive.connect(fresh_engine, service=tier) as session:
            jobs = []
            for user in ("ann", "ben", "ann"):
                jobs.append(
                    session.submit(
                        "SELECT objid FROM photo WHERE mag_r < 15",
                        query_class="batch",
                        user=user,
                    )
                )
            for job in jobs:
                assert job.wait(timeout=30).value == "done"
            assert [job.user for job in jobs] == ["ann", "ben", "ann"]
            # Every dispatched job records which fairness round served
            # it, and the queue's per-user ledger adds up.
            assert all(job.dispatch_round is not None for job in jobs)
            assert session._batch_queue.dispatched == {"ann": 2, "ben": 1}

    def test_per_user_admission_cap(self, fresh_engine):
        # Cap of zero: deterministic rejection regardless of dispatcher
        # timing — the quota trips before any job is created.
        tier = ServiceTier(max_queued_per_user=0)
        with Archive.connect(fresh_engine, service=tier) as session:
            with pytest.raises(QuotaExceededError):
                session.submit(
                    "SELECT objid FROM photo WHERE mag_r < 15",
                    query_class="batch",
                    user="greedy",
                )
            assert tier.admission.rejected == {"greedy": 1}
            assert session.jobs == []  # no orphaned QUEUED job
            # Interactive submissions are not batch-quota'd.
            table = session.query_table(
                "SELECT objid FROM photo WHERE mag_r < 15"
            )
            assert table is not None

    def test_a_light_user_overtakes_a_flood_on_the_live_queue(self, photo):
        gate = threading.Event()
        executor = _HeldExecutor(photo, gate)
        with Session(executor) as session:
            hold = session.submit("hold", query_class="batch", user="flood")
            _wait_running(hold)
            flood = [
                session.submit(f"f{k}", query_class="batch", user="flood")
                for k in range(3)
            ]
            light = session.submit("light", query_class="batch", user="light")
            gate.set()
            for job in [hold, *flood, light]:
                assert job.wait(timeout=10) is JobState.DONE
        order = executor.started
        # The flood runs in its own submission order, and the light
        # user's one job is served before the flood's backlog drains.
        assert [label for label in order if label != "light"] == [
            "hold", "f0", "f1", "f2"
        ]
        assert order.index("light") < order.index("f1")
        assert session._batch_queue.dispatched == {"flood": 4, "light": 1}

    def test_admission_cap_counts_only_queued_jobs(self, photo):
        # The running job has left the queue: with a cap of one, a user
        # may hold the batch machine and have one more job waiting.
        gate = threading.Event()
        tier = ServiceTier(max_queued_per_user=1)
        with Session(_HeldExecutor(photo, gate), service=tier) as session:
            running = session.submit("run", query_class="batch", user="ann")
            _wait_running(running)
            waiting = session.submit("wait", query_class="batch", user="ann")
            assert waiting.state is JobState.QUEUED
            with pytest.raises(QuotaExceededError):
                session.submit("over", query_class="batch", user="ann")
            other = session.submit("other", query_class="batch", user="ben")
            gate.set()
            for job in (running, waiting, other):
                assert job.wait(timeout=10) is JobState.DONE
            assert tier.admission.rejected == {"ann": 1}
            assert [job.user for job in session.jobs] == ["ann", "ann", "ben"]
