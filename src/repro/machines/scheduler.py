"""The batch machine's fair-share queue.

*"The scan machine will be interactively scheduled: when an astronomer has
a query, it is added to the query mix immediately. ... The hash and river
machines will be batch scheduled."*

A :class:`~repro.session.core.Session` enforces that split live: an
interactive job starts on its store's shared sweep the moment it is
submitted, while batch jobs queue on a :class:`DeficitRoundRobin` and
the session's dispatcher runs them one at a time, fair-share across
users.
"""

from __future__ import annotations

import threading
from collections import deque

__all__ = ["DeficitRoundRobin"]


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
