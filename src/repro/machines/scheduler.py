"""Machine scheduling: interactive scans, batched hash/river jobs.

*"The scan machine will be interactively scheduled: when an astronomer has
a query, it is added to the query mix immediately. ... The hash and river
machines will be batch scheduled."*

:class:`MachineScheduler` is a small simulated-time scheduler enforcing
that policy: scan jobs are admitted immediately (the scan machine
piggybacks any number of concurrent predicates on its sweep), while hash
and river jobs queue FIFO per machine and run exclusively.

Sweep machines exist per store: the session layer admits each
interactive query as a job on ``sweep:<store>`` (single store) or one
job per touched partition server on ``sweep:<server_id>`` — one shared
sweep machine per store, piggybacking every concurrent predicate, not N
per-query scan machines.  All sweep machines share the interactive
policy — jobs overlap freely — because the sweep piggybacks every
concurrent predicate.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Optional

__all__ = ["Job", "MachineScheduler", "DeficitRoundRobin"]


@dataclass
class Job:
    """One submitted job.

    ``machine`` is 'sweep', 'sweep:<store>', 'hash', 'river' or
    'batch'; ``duration`` is the job's simulated run time (for sweep
    jobs: one full sweep).
    ``user`` is the submitting tenant (multi-tenant batch accounting).
    """

    name: str
    machine: str
    duration: float
    arrival_time: float = 0.0
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    user: str = "anonymous"

    def turnaround(self):
        """Simulated seconds from arrival to completion."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.arrival_time


class MachineScheduler:
    """Simulated-time admission control for the machine classes.

    Machines come in two policies: the *sweep* class (``'sweep'`` /
    ``'sweep:<store>'``) is interactively scheduled — jobs overlap
    freely on the store's one shared sweep — while the *batch* class
    (``'hash'``, ``'river'``, and the session layer's ``'batch'`` query
    machine) serializes FIFO per machine.  Any other name is refused
    with :class:`ValueError`.
    """

    BATCH_MACHINES = ("hash", "river", "batch")

    @staticmethod
    def is_scan_machine(machine):
        """True for the interactive sweep class: ``'sweep'`` /
        ``'sweep:<store>'``."""
        return machine == "sweep" or machine.startswith("sweep:")

    def __init__(self):
        self.completed = []
        #: per-batch-machine completion horizon for stateful admission
        self._machine_free_at = {}

    def _place(self, job, free_at):
        """Shared placement: scan overlaps freely, batch serializes FIFO
        against ``free_at`` (the per-machine completion horizon)."""
        if self.is_scan_machine(job.machine):
            job.started_at = job.arrival_time
            job.completed_at = job.started_at + job.duration
        elif job.machine in self.BATCH_MACHINES:
            start = max(job.arrival_time, free_at.get(job.machine, 0.0))
            job.started_at = start
            job.completed_at = start + job.duration
            free_at[job.machine] = job.completed_at
        else:
            raise ValueError(f"unknown machine {job.machine!r}")
        self.completed.append(job)
        return job

    def run(self, jobs):
        """Schedule all jobs; returns them with times filled in.

        Scan jobs overlap freely (shared sweep: a scan job admitted at
        time t completes at t + duration regardless of other scan jobs).
        Batch jobs serialize per machine in arrival order; the batch
        horizon resets per call (one closed job list).
        """
        jobs = sorted(jobs, key=lambda j: (j.arrival_time, j.name))
        free_at = {}
        for job in jobs:
            self._place(job, free_at)
        return jobs

    def admit(self, job):
        """Stateful single-job admission (for session-style submission).

        Unlike :meth:`run`, ``admit`` remembers each batch machine's
        completion time across calls, so jobs submitted one at a time
        still serialize FIFO per machine while scan jobs keep
        overlapping freely.  Returns the job with times filled in.
        """
        return self._place(job, self._machine_free_at)

    def mean_turnaround(self, machine=None):
        """Average turnaround of completed jobs (optionally one machine)."""
        relevant = [
            j for j in self.completed if machine is None or j.machine == machine
        ]
        if not relevant:
            return 0.0
        return sum(j.turnaround() for j in relevant) / len(relevant)


class DeficitRoundRobin:
    """Fair-share batch queue: deficit round robin across users.

    Replaces the global FIFO in front of the batch machine.  Each user
    with backlog sits in a rotation; every full pass of the rotation (a
    *round*) credits each backlogged user one ``quantum`` of deficit,
    and a user's head-of-queue item is dispatched when its ``cost`` fits
    the accumulated deficit.  With unit costs (the default) this
    degenerates to strict round-robin — and with a single user, to the
    plain FIFO this class replaced — while still guaranteeing
    no-starvation in general: a user's head item waits at most
    ``ceil(cost / quantum)`` rounds regardless of how hard other users
    flood the queue.

    Thread-safe.  :meth:`get` blocks until an item is available and
    returns ``(user, item, round)``, or ``None`` once the queue is
    closed *and* drained (close-then-drain matches the FIFO's
    sentinel-last semantics: items enqueued before close still come
    out).  ``rounds`` and per-user ``dispatched`` counts are the
    deterministic fairness evidence tests assert on.
    """

    def __init__(self, quantum=1.0):
        self.quantum = float(quantum)
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._queues = {}  # user -> deque[(item, cost)]
        self._rotation = []  # users with backlog, in visit order
        self._cursor = 0
        self._deficits = {}
        self._charged = set()  # users credited this round
        self._closed = False
        #: completed passes over the rotation
        self.rounds = 0
        #: items dispatched per user
        self.dispatched = {}

    def put(self, user, item, cost=1.0):
        """Enqueue one item for ``user`` (FIFO within the user)."""
        with self._ready:
            if self._closed:
                raise RuntimeError("queue is closed")
            backlog = self._queues.setdefault(user, deque())
            if not backlog:
                self._rotation.append(user)
                self._deficits.setdefault(user, 0.0)
            backlog.append((item, float(cost)))
            self._ready.notify()

    def get(self):
        """Next ``(user, item, round)`` in fair-share order (blocking),
        or ``None`` when closed and drained."""
        with self._ready:
            while True:
                if self._rotation:
                    return self._next_locked()
                if self._closed:
                    return None
                self._ready.wait()

    def _next_locked(self):
        while True:
            if self._cursor >= len(self._rotation):
                self._cursor = 0
                self.rounds += 1
                self._charged.clear()
            user = self._rotation[self._cursor]
            if user not in self._charged:
                self._deficits[user] += self.quantum
                self._charged.add(user)
            backlog = self._queues[user]
            item, cost = backlog[0]
            if self._deficits[user] >= cost:
                backlog.popleft()
                self._deficits[user] -= cost
                self.dispatched[user] = self.dispatched.get(user, 0) + 1
                if not backlog:
                    # Backlog drained: leave the rotation and forfeit
                    # the remaining deficit (an idle user must not bank
                    # credit against future rounds).
                    self._rotation.pop(self._cursor)
                    del self._deficits[user]
                    self._charged.discard(user)
                return (user, item, self.rounds)
            # Not enough deficit yet: carry it, visit the next user.
            self._cursor += 1

    def pending(self, user=None):
        """Queued item count, for one user or in total."""
        with self._lock:
            if user is not None:
                return len(self._queues.get(user, ()))
            return sum(len(q) for q in self._queues.values())

    def close(self):
        """Stop accepting items; blocked getters drain then see None."""
        with self._ready:
            self._closed = True
            self._ready.notify_all()
