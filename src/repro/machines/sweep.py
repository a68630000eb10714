"""The shared sweep scanner: one circular read path under every query.

*"Our simplest approach is to run a scan machine that continuously scans
the dataset evaluating user-supplied predicates on each object. ... All
data that qualifies is sent back to the astronomer, and the query
completes within the scan time."*

:class:`SweepScanner` makes the paper's scan machine the *real* read
path instead of a standalone simulation: every concurrent scan of a
:class:`~repro.storage.containers.ContainerStore` subscribes to the
store's single scanner, which sweeps the containers in a circle and
hands each container to every active subscriber.  A query joining
mid-sweep starts at the current position and completes on wrap-around —
N concurrent queries cost one physical pass, not N.

Three properties keep the shared sweep from being slower than private
scans ever were:

* **pruned subscribers skip containers** — a subscription carries the
  query's HTM candidate :class:`~repro.htm.ranges.RangeSet`; containers
  outside it are counted as skipped (they still advance the
  subscription toward completion) and, when *no* active subscriber
  wants a container, it is never read at all.  Nor is it visited: the
  lap order is sorted, so while every active subscriber carries
  candidates a step *jumps* by bisection to the next container any of
  them wants and counts the ones in between arithmetically — a lap
  costs what it delivers plus O(cover ranges · log containers), not
  one test per container.  A whole-catalog subscriber wants every
  position, so beside one the sweep walks as it always did;
* **reads go through the buffer pool** — the sweep reads each run of
  containers via :meth:`BufferPool.fetch_many
  <repro.storage.buffer.BufferPool.fetch_many>`, so a lap over
  recently-swept data is served from the pool without physical I/O;
* **the sweep never stalls on a slow astronomer** — deliveries are
  references to resident container tables pushed on unbounded
  subscription streams, so one blocked consumer cannot wedge the sweep
  for everyone else (each query's own output stream still applies
  backpressure downstream).

The scanner has two driving modes sharing one :meth:`step` core: *live*
(:meth:`subscribe` — a daemon thread sweeps while subscriptions exist,
parking at the top of the store when idle so sequential queries stay
deterministic) and *manual* (:meth:`attach` with a synchronous sink —
the simulated-time :class:`~repro.machines.scan.ScanMachine` drives the
steps itself and charges its own clock).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

from repro.query.qet import Stream

__all__ = ["SweepScanner", "SweepSubscription", "SweepStats", "SweepStep"]


@dataclass
class SweepStats:
    """Lifetime accounting for one store's shared sweep."""

    #: steps that pumped a container to at least one subscriber
    containers_swept: int = 0
    #: physical reads (buffer-pool misses) among the swept steps
    containers_read: int = 0
    #: swept steps served out of the buffer pool
    containers_from_pool: int = 0
    #: steps skipped entirely (no active subscriber wanted the container)
    containers_skipped: int = 0
    #: container handoffs summed over subscribers
    deliveries: int = 0
    #: bytes pumped through the sweep (from disk or pool)
    bytes_swept: int = 0
    #: completed circular passes
    laps: int = 0

    def sharing_factor(self):
        """Container deliveries per swept container.

        1.0 means every swept container served exactly one query (no
        sharing); K concurrent all-sky queries push it toward K.
        """
        if self.containers_swept == 0:
            return 1.0
        return self.deliveries / self.containers_swept


@dataclass
class SweepStep:
    """What one :meth:`SweepScanner.step` did (a run of containers)."""

    #: container ids visited this step, in sweep order: the run it
    #: classified, not the ones it jumped over to get there
    htm_ids: list
    #: bytes pumped (0 when every container was skipped by every subscriber)
    nbytes: int
    #: containers pumped to at least one subscriber
    pumped: int
    #: pumped containers that came out of the buffer pool
    from_pool: int
    #: True when this step closed a circular pass
    wrapped: bool


class SweepSubscription:
    """One query's membership in a store's shared sweep.

    Iterate it for ``(htm_id, table, from_pool)`` deliveries (live
    mode), or give the scanner a synchronous ``sink`` callable instead
    (manual mode).  ``candidates`` restricts deliveries to an HTM
    :class:`~repro.htm.ranges.RangeSet` — pruned containers count as
    ``skipped`` and still advance the subscription, so pruning never
    breaks the shared wrap-around accounting.
    """

    def __init__(self, scanner, candidates=None, sink: Optional[Callable] = None):
        self.scanner = scanner
        self.candidates = candidates
        self._sink = sink
        #: containers this subscription must be offered before completing
        #: (fixed by the scanner at attach time)
        self.total = 0
        #: sweep position at which this subscription joined
        self.start_position = 0
        self.seen = 0
        self.delivered = 0
        self.skipped = 0
        self.from_pool = 0
        self.done = False
        self.stream = Stream(maxsize=0) if sink is None else None

    def wants(self, htm_id):
        """Whether this subscription needs the container's rows."""
        return self.candidates is None or self.candidates.contains(htm_id)

    def physical_reads(self):
        """Deliveries whose bytes came off disk during this pass."""
        return self.delivered - self.from_pool

    def completed(self):
        """True once every container was offered exactly once."""
        return self.done and self.seen >= self.total

    def cancel(self):
        """Consumer side: stop receiving; the sweep drops this subscription."""
        self.done = True
        if self.stream is not None:
            self.stream.cancel()

    def __iter__(self):
        """Yield ``(htm_id, table, from_pool)`` per delivered container.

        Deliveries travel as *runs* (the scanner batches consecutive
        containers per push to keep handoff overhead off the hot path);
        iteration flattens them back to per-container granularity.
        Consumers that batch their own work (the morsel-coalescing
        :class:`~repro.query.qet.ScanNode`) should use
        :meth:`iter_runs` instead and keep the run structure.
        """
        if self.stream is None:
            raise TypeError("a sink-based (manual) subscription is not iterable")
        for run in self.stream:
            yield from run

    def iter_runs(self):
        """Yield whole delivery runs (lists of ``(htm_id, table,
        from_pool)``) as the sweep pushed them — the coalescing read
        path: one handoff, one iteration step, many containers."""
        if self.stream is None:
            raise TypeError("a sink-based (manual) subscription is not iterable")
        return iter(self.stream)

    # -- scanner side ---------------------------------------------------

    def _deliver_run(self, run):
        """Hand a run of ``(htm_id, table, from_pool)`` to the consumer."""
        if self._sink is not None:
            ok = True
            for htm_id, table, from_pool in run:
                if self._sink(htm_id, table, from_pool) is False:
                    ok = False
                    break
        else:
            ok = self.stream.push(run)
        if ok:
            self.delivered += len(run)
            self.from_pool += sum(1 for _h, _t, hit in run if hit)
        else:
            self.done = True  # consumer cancelled mid-delivery
        return ok

    def _complete(self):
        if not self.done:
            self.done = True
            if self.stream is not None:
                self.stream.close()

    def _fail(self, exc):
        """Scanner side: the sweep died; surface the error to the consumer."""
        if not self.done:
            self.done = True
            if self.stream is not None:
                self.stream.fail(exc)


class SweepScanner:
    """Sweeps a container store in a circle for all active subscribers."""

    #: containers advanced per live step: amortizes the lock cycle and
    #: queue handoff without coarsening join/complete granularity (runs
    #: still break at wrap boundaries and completion points)
    stride = 32

    def __init__(self, store, name=None, throttle=0.0):
        self.store = store
        #: optional label used in diagnostics and machine names
        self.name = name
        self.stats = SweepStats()
        from repro.obs.metrics import registry as _obs_registry

        #: weakly-held publication into the process-wide metrics
        #: registry; a collected scanner drops out of snapshots
        self._metrics_ref = _obs_registry().add_source(self._published_metrics)
        self._cond = threading.Condition()
        self._throttle = float(throttle)
        self._subs = []
        self._order = []
        #: how much of ``_order`` is sorted: all of a fresh snapshot,
        #: not the tail appended when the store grew under the sweep
        self._sorted_len = 0
        self._position = 0
        #: the store's mutation generation when ``_order`` was last made
        #: or extended
        self._generation = None
        self._thread = None

    def _published_metrics(self):
        """Registry source: this sweep's lifetime counters (summed with
        every other sweep's at snapshot; the sharing factor is derived
        there from the summed totals)."""
        stats = self.stats
        return {
            "sweep.containers_swept": stats.containers_swept,
            "sweep.containers_read": stats.containers_read,
            "sweep.containers_from_pool": stats.containers_from_pool,
            "sweep.containers_skipped": stats.containers_skipped,
            "sweep.deliveries": stats.deliveries,
            "sweep.bytes_swept": stats.bytes_swept,
            "sweep.laps": stats.laps,
        }

    @property
    def throttle(self):
        """Live mode: seconds slept per swept container (test/disk-rate
        knob); a throttled sweep steps one container at a time so the
        pacing — and mid-sweep join granularity — is per container.
        Containers a step jumps over are not swept and not paced.

        Reads and writes go through the sweep's condition variable:
        assigning a new value mid-sweep wakes the live thread out of its
        pacing wait, so the change takes effect on the very next step
        instead of after a stale sleep."""
        with self._cond:
            return self._throttle

    @throttle.setter
    def throttle(self, value):
        with self._cond:
            self._throttle = float(value)
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # joining the sweep
    # ------------------------------------------------------------------

    def subscribe(self, candidates=None):
        """Join the live sweep; returns an iterable
        :class:`SweepSubscription`.

        A subscription taken while the sweep is mid-lap starts at the
        current position and completes on wrap-around (the paper's
        "added to the query mix immediately ... completes within the
        scan time").  An idle sweep parks at the top of the store, so a
        lone query sees containers in sorted-id order.
        """
        with self._cond:
            sub = self._attach_locked(SweepSubscription(self, candidates=candidates))
            if not sub.done:
                self._ensure_thread_locked()
            self._cond.notify_all()
        return sub

    def attach(self, candidates=None, sink=None):
        """Manual-mode join: no background thread, deliveries through the
        synchronous ``sink`` as the caller drives :meth:`step`."""
        with self._cond:
            return self._attach_locked(
                SweepSubscription(self, candidates=candidates, sink=sink)
            )

    def _attach_locked(self, sub):
        if not self._subs:
            # Idle sweep: take a fresh snapshot of the container order
            # and park at the top (deterministic for sequential work).
            self._order = self.store.occupied_ids()
            self._sorted_len = len(self._order)
            self._position = 0
        elif self.store.generation != self._generation:
            # The store changed under an active sweep: append the new
            # containers to the tail of the lap so this (and every
            # later) subscriber sees them, without renumbering the
            # positions mid-lap subscribers are counting against.
            # Removed containers stay in the order and are skipped by
            # ``step`` when the lookup misses.  The generation, not the
            # container count, tells: one container added and another
            # removed leave the count as it was.
            known = set(self._order)
            self._order = self._order + [
                htm_id
                for htm_id in self.store.occupied_ids()
                if htm_id not in known
            ]
        self._generation = self.store.generation
        sub.total = len(self._order)
        sub.start_position = self._position
        if sub.total == 0:
            sub._complete()
        else:
            self._subs.append(sub)
        return sub

    def active_subscriptions(self):
        """How many subscriptions the sweep is currently serving."""
        with self._cond:
            return len(self._subs)

    def position(self):
        """Current sweep position (index into the lap order)."""
        with self._cond:
            return self._position

    # ------------------------------------------------------------------
    # the sweep core
    # ------------------------------------------------------------------

    def step(self, stride=1):
        """Advance the sweep for every active subscriber: jump to the
        next container any of them wants, then pump a run of up to
        ``stride`` consecutive containers from there.

        The jump costs two bisections per candidate interval it passes,
        not one ``wants`` call per container: the containers in between
        are credited to every subscriber's ``seen`` / ``skipped`` and to
        ``containers_skipped`` as a count and are never looked at.  A
        subscriber without candidates wants every position, so a sweep
        serving one never jumps.  Neither the jump nor the run crosses a
        wrap boundary or any subscriber's completion point, so
        join/complete granularity stays per container while the lock
        and queue handoffs amortize over the run.  Returns a
        :class:`SweepStep` (its run is empty when the jump alone reached
        the lap's end or a completion point), or ``None`` when there is
        nothing to do.  Shared by the live thread (``stride > 1``) and
        the simulated :class:`~repro.machines.scan.ScanMachine` driver
        (``stride=1``, one clock charge per container).
        """
        with self._cond:
            if not self._subs or not self._order:
                return None
            subs = list(self._subs)
            start = self._position
            lap_len = len(self._order)
            # No further than the lap's end or the first completion point.
            stop = start + min(lap_len - start, *(s.total - s.seen for s in subs))
            run_start = self._next_wanted_locked(subs, start, stop)
            run_stop = max(start + 1, min(run_start + int(stride), stop))
            run_ids = self._order[run_start:run_stop]
            advanced = run_stop - start
            # Advance before delivering: a subscriber joining during the
            # deliveries starts at the run end and still sees every
            # container exactly once on wrap-around.
            self._position = run_stop
            wrapped = self._position >= lap_len
            if wrapped:
                self._position = 0
                self.stats.laps += 1

        # Classify the run and read the wanted containers in one batch.
        to_read = []
        for htm_id in run_ids:
            container = self.store.containers.get(htm_id)
            if container is None:
                continue
            wanting = [s for s in subs if not s.done and s.wants(htm_id)]
            if wanting:
                to_read.append((htm_id, container, wanting))
        read_results = (
            self.store.buffer_pool.fetch_many(
                self.store, [c for _h, c, _w in to_read]
            )
            if to_read
            else []
        )

        nbytes = 0
        pumped = 0
        pooled = 0
        deliveries = 0
        per_sub = {id(s): [] for s in subs}
        for (htm_id, container, wanting), (table, from_pool) in zip(
            to_read, read_results
        ):
            nbytes += container.nbytes()
            pumped += 1
            pooled += int(from_pool)
            for sub in wanting:
                per_sub[id(sub)].append((htm_id, table, from_pool))

        for sub in subs:
            if sub.done:
                continue
            run = per_sub[id(sub)]
            if run and sub._deliver_run(run):
                deliveries += len(run)
            if not sub.done:
                sub.skipped += advanced - len(run)
                sub.seen += advanced
                if sub.seen >= sub.total:
                    sub._complete()

        with self._cond:
            self.stats.containers_swept += pumped
            self.stats.containers_read += pumped - pooled
            self.stats.containers_from_pool += pooled
            self.stats.containers_skipped += advanced - pumped
            self.stats.bytes_swept += nbytes
            self.stats.deliveries += deliveries
            self._subs = [s for s in self._subs if not s.done]
            if not self._subs:
                # Park at the top; the next subscriber re-snapshots.
                self._order = []
                self._position = 0
        return SweepStep(
            htm_ids=run_ids,
            nbytes=nbytes,
            pumped=pumped,
            from_pool=pooled,
            wrapped=wrapped,
        )

    def _next_wanted_locked(self, subs, start, stop):
        """Lap position in ``[start, stop]`` of the first container any
        of ``subs`` wants; ``stop`` when none of them wants any.

        The lap order is sorted up to ``_sorted_len``, so the next id a
        candidate set names (:meth:`RangeSet.next_member
        <repro.htm.ranges.RangeSet.next_member>`) is found in it by
        bisection; a named id the store does not hold lands on the next
        one it does, and the search goes on from there.  The tail a
        store that grew mid-lap appended is not sorted: the search stops
        where it begins and :meth:`step` walks it container by
        container.
        """
        order = self._order
        first = order[start]
        # Asked through ``wants`` first: a subscriber without candidates
        # answers here, and so does one whose candidates cannot answer.
        if any(s.wants(first) for s in subs):
            return start
        stop = min(stop, self._sorted_len)
        if start >= stop:
            return start
        for sub in subs:
            position = start + 1
            while position < stop:
                member = sub.candidates.next_member(order[position])
                if member is None:
                    position = stop
                elif member == order[position]:
                    break
                else:
                    position = bisect_left(order, member, position + 1, stop)
            # Never past ``stop``: the next subscriber searches only up
            # to the nearest position found so far.
            stop = position
        return stop

    # ------------------------------------------------------------------
    # the live thread
    # ------------------------------------------------------------------

    def _ensure_thread_locked(self):
        if self._thread is None or not self._thread.is_alive():
            label = self.name if self.name else f"{id(self.store):x}"
            self._thread = threading.Thread(
                target=self._loop, daemon=True, name=f"sweep-{label}"
            )
            self._thread.start()

    def _loop(self):
        while True:
            with self._cond:
                while not self._subs:
                    self._cond.wait()
                throttle = self._throttle
            try:
                advanced = self.step(stride=1 if throttle else self.stride)
            except Exception as exc:
                # The sweep must never die silently: fail every active
                # subscription so consumers raise instead of blocking
                # forever, then keep serving later subscribers.
                with self._cond:
                    failed = list(self._subs)
                    self._subs = []
                    self._order = []
                    self._position = 0
                for sub in failed:
                    sub._fail(exc)
                continue
            if advanced is None:
                # Subscribers exist but nothing was deliverable (e.g. a
                # racing detach emptied the lap): block on the condition
                # with a bounded wait instead of busy-spinning; any
                # subscribe or throttle change notifies us awake.
                with self._cond:
                    if self._subs:
                        self._cond.wait(timeout=0.05)
                continue
            if throttle:
                # Pace on the condition variable, not a bare sleep: a
                # mid-sweep throttle change (or a new subscriber) wakes
                # the wait and takes effect on the very next step.
                with self._cond:
                    if self._throttle:
                        self._cond.wait(timeout=self._throttle)

    def __repr__(self):
        return (
            f"SweepScanner(store={self.store!r}, "
            f"active={self.active_subscriptions()}, "
            f"sharing={self.stats.sharing_factor():.2f})"
        )
