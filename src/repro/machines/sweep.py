"""The shared sweep scanner: one circular read path under every query.

*"Our simplest approach is to run a scan machine that continuously scans
the dataset evaluating user-supplied predicates on each object. ... All
data that qualifies is sent back to the astronomer, and the query
completes within the scan time."*

:class:`SweepScanner` makes the paper's scan machine the *real* read
path instead of a standalone simulation: every concurrent scan of a
:class:`~repro.storage.containers.ContainerStore` subscribes to the
store's single scanner, which sweeps the store's pages in trixel-id
order, in a circle, and hands each subscriber the rows of the trixels it
wants on them.  A query joining mid-sweep starts at the current position
and completes on wrap-around — N concurrent queries cost one physical
pass, not N.

Two units meet here.  A *container* — what the sweep steps over and the
buffer pool accounts — is a page of one of the store's runs
(:data:`~repro.storage.containers.PAGE_BYTES` of its HTM-sorted rows,
numbered within the run and keyed by the run's token plus that number),
so a lap costs what it reads: a store of narrow tag rows has as many
times fewer pages as its rows are narrower.  A *trixel* stays the unit of
everything that decides which rows a subscriber receives: its
candidates, its spans, its start and the delivery claims built from
them.  The sweep addresses a trixel as ``(r, j)``: window ``r`` of the
snapshot's runs and index ``j`` of that run's own lists, made once when
the run was written, so a load costs the sweep no index rebuild.

The sweep's position is a trixel id, read against whatever
:class:`~repro.storage.containers.StoreSnapshot` the store holds at
each step.  A subscription records the id the sweep stood at when it
joined: it is offered every held trixel at or after that id, then,
after the wrap, every held trixel before it, and it is done when the
sweep comes back to its start.  So when the store changes mid-lap, a
trixel held at attach and still held when the sweep reaches it is
offered exactly once, a trixel added after attach is offered only if
its id lies in the arc the subscription has not swept yet, and a
removed trixel is not offered.

Three properties keep the shared sweep from being slower than private
scans ever were:

* **pruned subscribers skip pages** — a subscription carries the
  query's HTM candidate :class:`~repro.htm.ranges.RangeSet`; trixels
  outside it are never delivered to it, pages holding none of its
  trixels are counted as skipped (they still advance the subscription
  toward completion) and, when *no* active subscriber wants a trixel on
  a page, the page is never read at all.  Nor is it visited: while
  every active subscriber carries candidates a step *jumps* by
  bisection to the next trixel any of them wants and counts the pages
  in between arithmetically — a lap costs what it delivers plus
  O(cover intervals · log trixels), not one test per trixel.  A
  whole-catalog subscriber wants every trixel, so beside one the sweep
  walks, ``stride`` pages a step (:data:`~repro.storage.containers.STEP_PAGES`,
  also the shortest run a load leaves);
* **reads go through the buffer pool** — the sweep accounts each step's
  pages via :meth:`BufferPool.fetch_many
  <repro.storage.buffer.BufferPool.fetch_many>`, one entry per page, so
  a lap over recently-swept data is served from the pool without
  physical I/O;
* **the sweep never stalls on a slow astronomer** — a delivery is a
  :class:`SweepRun`, index spans of one immutable snapshot, pushed on
  unbounded subscription streams, so one blocked consumer cannot wedge
  the sweep for everyone else (each query's own output stream still
  applies backpressure downstream).

The scanner has two driving modes sharing one :meth:`step` core: *live*
(:meth:`subscribe` — a daemon thread sweeps while subscriptions exist,
parks at the top of the store when idle so sequential queries stay
deterministic, and ends once its store is collected) and *manual*
(:meth:`attach` with a synchronous sink — the simulated-time
:class:`~repro.machines.scan.ScanMachine` drives the steps itself and
charges its own clock).
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

from repro.query.qet import Stream
from repro.storage.containers import STEP_PAGES

__all__ = ["SweepRun", "SweepScanner", "SweepSubscription", "SweepStats", "SweepStep"]


class SweepRun(NamedTuple):
    """One delivery: ``spans`` are ``(r, k0, k1)`` index ranges of
    ``snapshot`` in sweep order — trixels ``id_list[k0:k1]`` of window
    ``r``'s run, rows ``offset_list[k0]:offset_list[k1]`` of its
    ``data`` — and ``hits`` holds one buffer-pool flag per page those
    trixels lie in, in the same order."""

    snapshot: object
    spans: list
    hits: list

    def containers(self):
        """``(htm_id, rows, from_pool)`` per trixel; ``rows`` is a view
        of the run holding it and ``from_pool`` its page's flag."""
        runs = self.snapshot.runs
        hits = iter(self.hits)
        page = None
        for r, k0, k1 in self.spans:
            run = runs[r]
            ids, offsets, page_of, data = run.id_list, run.offset_list, run.page_of, run.data
            for k in range(k0, k1):
                if run.token + page_of[k] != page:
                    page, from_pool = run.token + page_of[k], next(hits)
                yield ids[k], data[offsets[k] : offsets[k + 1]], from_pool


@dataclass
class SweepStats:
    """Lifetime accounting for one store's shared sweep; a container is
    a page (one buffer-pool access per page a step reads)."""

    #: pages read for at least one subscriber
    containers_swept: int = 0
    #: physical reads (buffer-pool misses) among the swept pages
    containers_read: int = 0
    #: swept pages served out of the buffer pool
    containers_from_pool: int = 0
    #: pages passed over (no active subscriber wanted a trixel on them)
    containers_skipped: int = 0
    #: page handoffs summed over subscribers
    deliveries: int = 0
    #: bytes of the trixels pumped through the sweep (from disk or pool)
    bytes_swept: int = 0
    #: completed circular passes
    laps: int = 0

    def sharing_factor(self):
        """Page deliveries per swept page.

        1.0 means every swept page served exactly one query (no
        sharing); K concurrent all-sky queries push it toward K.
        """
        if self.containers_swept == 0:
            return 1.0
        return self.deliveries / self.containers_swept


@dataclass
class SweepStep:
    """What one :meth:`SweepScanner.step` did (a run of pages)."""

    #: pages read this step, their pool keys in sweep order (one
    #: buffer-pool access each)
    pages: list
    #: bytes of the trixels pumped (0 when no subscriber wanted any)
    nbytes: int
    #: True when this step closed a circular pass
    wrapped: bool


class SweepSubscription:
    """One query's membership in a store's shared sweep.

    Iterate it for :class:`SweepRun` deliveries (live mode), or give the
    scanner a synchronous ``sink`` callable taking each (manual mode).
    ``candidates`` restricts deliveries to an HTM
    :class:`~repro.htm.ranges.RangeSet` of trixels.  ``seen``,
    ``delivered``, ``skipped`` and ``from_pool`` count pages: pages
    holding none of its trixels count as ``skipped`` and still advance
    the subscription, so pruning never breaks the shared wrap-around
    accounting.
    """

    def __init__(self, scanner, candidates=None, sink: Optional[Callable] = None):
        self.scanner = scanner
        self.candidates = candidates
        self._sink = sink
        #: the trixel id the sweep stood at when this subscription
        #: joined (0, the top of the store, on an idle sweep)
        self.start = 0
        #: ``(lap, id)``: where the sweep is back at ``start``
        self._end = None
        self.seen = 0
        self.delivered = 0
        self.skipped = 0
        self.from_pool = 0
        self.done = False
        self._completed = False
        self.stream = Stream(maxsize=0) if sink is None else None

    def physical_reads(self):
        """Deliveries whose bytes came off disk during this pass."""
        return self.delivered - self.from_pool

    def completed(self):
        """True once the sweep came back to this subscription's start
        (not when it was cancelled or failed)."""
        return self._completed

    def cancel(self):
        """Consumer side: stop receiving; the sweep drops this subscription."""
        self.done = True
        if self.stream is not None:
            self.stream.cancel()

    def __iter__(self):
        """Yield each :class:`SweepRun` as the sweep pushed it — one
        handoff, one iteration step, many trixels
        (:meth:`SweepRun.containers` walks one trixel at a time)."""
        if self.stream is None:
            raise TypeError("a sink-based (manual) subscription is not iterable")
        return iter(self.stream)

    # -- scanner side ---------------------------------------------------

    def _wanted(self, runs, start, stop):
        """Yield the ``(r, a, b)`` spans from position ``start`` to
        ``stop`` this subscription wants, window by window
        (:meth:`_spans` of each run's ids)."""
        r, a = start
        while (r, a) < stop:
            run = runs[r]
            for lo, hi in self._spans(run.id_list, a, stop[1] if r == stop[0] else run.hi):
                yield r, lo, hi
            r += 1
            a = runs[r].lo if r < len(runs) else 0

    def _spans(self, ids, start, stop):
        """Yield the ``(a, b)`` index spans of ``ids[start:stop]`` this
        subscription wants, in order: the whole range without
        candidates, else one bisection pair per candidate interval that
        meets it (``ids`` is sorted, and so are the intervals).  Spans
        are trixel-exact whatever pages they lie in."""
        if start >= stop:
            return
        if self.candidates is None:
            yield start, stop
            return
        intervals = self.candidates.intervals
        for i in range(bisect_left(intervals, ids[start], key=_HIGH), len(intervals)):
            lo, hi = intervals[i]
            a = bisect_left(ids, lo, start, stop)
            if a == stop:
                return
            start = bisect_right(ids, hi, a, stop)
            if start > a:
                yield a, start

    def _deliver_run(self, run):
        """Hand a :class:`SweepRun` to the consumer."""
        if self._sink is not None:
            ok = self._sink(run) is not False
        else:
            ok = self.stream.push(run)
        if ok:
            self.delivered += len(run.hits)
            self.from_pool += sum(run.hits)
        else:
            self.done = True  # consumer cancelled mid-delivery
        return ok

    def _complete(self):
        if not self.done:
            self.done = self._completed = True
            if self.stream is not None:
                self.stream.close()

    def _fail(self, exc):
        """Scanner side: the sweep died; surface the error to the consumer."""
        if not self.done:
            self.done = True
            if self.stream is not None:
                self.stream.fail(exc)


#: a candidate interval's upper bound (intervals are sorted by both ends)
_HIGH = itemgetter(1)


def _position(runs, htm_id):
    """``(r, j)``: where the first trixel at or after ``htm_id`` lies —
    window ``r``, index ``j`` of its run's lists — or ``(len(runs), 0)``
    past the last."""
    for r, run in enumerate(runs):
        ids = run.id_list
        if ids[run.hi - 1] >= htm_id:
            return r, bisect_left(ids, htm_id, run.lo, run.hi)
    return len(runs), 0


def _passed(runs, start, stop):
    """How many pages the positions from ``start`` to ``stop`` lie in
    (``(len(runs), 0)`` is the end), window by window."""
    (r, a), passed = start, 0
    while (r, a) < stop:
        run = runs[r]
        passed += run.page_of[(stop[1] if r == stop[0] else run.hi) - 1] - run.page_of[a] + 1
        r += 1
        a = runs[r].lo if r < len(runs) else 0
    return passed


def _union(span_lists):
    """The sorted union of several subscribers' spans, overlaps merged."""
    union = []
    for r, a, b in sorted(span for spans in span_lists for span in spans):
        if union and union[-1][0] == r and a <= union[-1][2]:
            union[-1][2] = max(union[-1][2], b)
        else:
            union.append([r, a, b])
    return union


def _pages(runs, spans, nbytes=None):
    """The pool keys (run token + page) of the pages sorted, disjoint
    ``spans`` lie in, each once, in order (a page's trixels are
    consecutive, so a span's pages are a range); each page's bytes are
    appended to ``nbytes`` when it is given."""
    pages = []
    for r, a, b in spans:
        run = runs[r]
        page_of, token = run.page_of, run.token
        lo, hi = page_of[a], page_of[b - 1] + 1
        if pages and pages[-1] == token + lo:
            lo += 1
        pages.extend(range(token + lo, token + hi))
        if nbytes is not None:
            nbytes.extend(run.page_bytes[lo:hi])
    return pages


class SweepScanner:
    """Sweeps a container store in a circle for all active subscribers."""

    #: pages advanced per live step
    stride = STEP_PAGES

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
        #: the sweep's position: the next trixel id it reads this lap
        #: (or the first held one after it); 0, the top, between laps
        self._cursor = 0
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
        """Live mode: seconds slept per step (test/disk-rate knob); a
        throttled sweep steps one page at a time so the pacing — and
        mid-sweep join granularity — is per page.  Pages a step jumps
        over are not swept and not paced.

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
        lone query sees trixels in sorted-id order.
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
        # Start where the sweep stands (an idle one is parked at the
        # top) and end there one lap on.
        sub.start = self._cursor
        sub._end = (self.stats.laps + 1, self._cursor)
        if len(self.store.snapshot.ids):
            self._subs.append(sub)
        else:
            sub._complete()
        return sub

    def active_subscriptions(self):
        """How many subscriptions the sweep is currently serving."""
        with self._cond:
            return len(self._subs)

    def position(self):
        """Current sweep position: the next trixel id it reads this lap,
        or the first held one after it (0 at the top)."""
        with self._cond:
            return self._cursor

    # ------------------------------------------------------------------
    # the sweep core
    # ------------------------------------------------------------------

    def step(self, stride=1):
        """Advance the sweep for every active subscriber: jump to the
        next trixel any of them wants, then pump the run from there to
        the end of ``stride`` pages.

        A step reads one contiguous index range of the snapshot the
        store holds now, from the first trixel at or after the sweep's
        position.  The jump costs a bisection pair per candidate
        interval it passes, not one test per trixel: the pages in
        between are credited to every subscriber's ``seen`` /
        ``skipped`` and to ``containers_skipped`` as a count and are
        never looked at.  A subscriber without candidates wants every
        trixel, so a sweep serving one never jumps.  Neither the jump
        nor the run crosses the lap's end or the start of a subscriber
        the sweep has wrapped for, so join/complete granularity stays
        per trixel while the lock and queue handoffs amortize over the
        run.  Each subscriber gets its part of the run as trixel-exact
        index spans, and the pool is read once per page of their union,
        for the page's bytes.  Returns a :class:`SweepStep` (its run is
        empty when the jump alone reached the lap's end or a completion
        point), or ``None`` when there is nothing to do.  Shared by the
        live thread and the simulated
        :class:`~repro.machines.scan.ScanMachine` driver (``stride=1``,
        one clock charge per page).
        """
        with self._cond:
            if not self._subs:
                return None
            subs = list(self._subs)
            snapshot = self.store.snapshot
            runs = snapshot.runs
            lap = self.stats.laps
            start = _position(runs, self._cursor)
            # No further than the lap's end or the first start the sweep
            # comes back to in this lap.
            ends = [end for end_lap, end in (s._end for s in subs) if end_lap == lap]
            stop = (len(runs), 0)
            if ends:
                stop = max(start, _position(runs, min(ends)))
            first = stop
            for sub in subs:
                # Never past ``first``: each subscriber searches only up
                # to the nearest wanted trixel found so far.
                first = next(sub._wanted(runs, start, first), first)[:2]
            end = stop
            if first < stop:
                end = min(_after_pages(runs, first, int(stride)), stop)
            # Advance before delivering: a subscriber joining during the
            # deliveries starts at the run end and still sees every
            # trixel exactly once on wrap-around.
            wrapped = end[0] == len(runs)
            if wrapped:
                self.stats.laps += 1
                self._cursor = 0
            else:
                self._cursor = runs[end[0]].id_list[end[1]]
            position = (self.stats.laps, self._cursor)

        # Each subscriber's spans of the run, and one pool read per page
        # of their union, all in the one snapshot.
        wanting = [(s, list(s._wanted(runs, first, end))) for s in subs if not s.done]
        union = _union(spans for _sub, spans in wanting)
        sizes = []
        pages = _pages(runs, union, sizes)
        flags = (
            self.store.buffer_pool.fetch_many(self.store, list(zip(pages, sizes)))
            if pages
            else []
        )
        hit = dict(zip(pages, flags))
        pooled = sum(flags)
        nbytes = sum(runs[r].before[b] - runs[r].before[a] for r, a, b in union)

        # Pages the step passed, the jumped-over ones included.
        advanced = _passed(runs, start, end)
        deliveries = 0
        for sub, spans in wanting:
            if sub.done:
                continue
            mine = [hit[p] for p in _pages(runs, spans)]
            if spans and sub._deliver_run(SweepRun(snapshot, spans, mine)):
                deliveries += len(mine)
            if not sub.done:
                sub.skipped += advanced - len(mine)
                sub.seen += advanced
                if position >= sub._end:
                    sub._complete()

        with self._cond:
            self.stats.containers_swept += len(pages)
            self.stats.containers_read += len(pages) - pooled
            self.stats.containers_from_pool += pooled
            self.stats.containers_skipped += advanced - len(pages)
            self.stats.bytes_swept += nbytes
            self.stats.deliveries += deliveries
            self._subs = [s for s in self._subs if not s.done]
            if not self._subs:
                self._cursor = 0  # park at the top
        return SweepStep(pages=pages, nbytes=nbytes, wrapped=wrapped)

    # ------------------------------------------------------------------
    # the live thread
    # ------------------------------------------------------------------

    def _ensure_thread_locked(self):
        if self._thread is None or not self._thread.is_alive():
            label = self.name if self.name else f"{id(self.store):x}"
            self._thread = threading.Thread(
                target=_sweep_while_reachable,
                args=(weakref.ref(self), self._cond),
                daemon=True,
                name=f"sweep-{label}",
            )
            self._thread.start()

    def _live_step(self):
        with self._cond:
            throttle = self._throttle
        try:
            self.step(stride=1 if throttle else self.stride)
        except Exception as exc:
            # The sweep must never die silently: fail every active
            # subscription so consumers raise instead of blocking
            # forever, then keep serving later subscribers.
            with self._cond:
                failed = list(self._subs)
                self._subs = []
                self._cursor = 0
            for sub in failed:
                sub._fail(exc)
            return
        if throttle:
            # Pace on the condition variable, not a bare sleep: a
            # mid-sweep throttle change (or a new subscriber) wakes the
            # wait and takes effect on the very next step.
            with self._cond:
                if self._throttle:
                    self._cond.wait(timeout=self._throttle)

    def __repr__(self):
        return (
            f"SweepScanner(store={self.store!r}, "
            f"active={self.active_subscriptions()}, "
            f"sharing={self.stats.sharing_factor():.2f})"
        )


def _after_pages(runs, position, stride):
    """The position ``stride`` pages on from the start of the page
    ``position`` lies in, across windows (``(len(runs), 0)`` at most)."""
    r, j = position
    run = runs[r]
    page = run.page_of[j]
    while True:
        last = run.page_of[run.hi - 1]
        if page + stride <= last:
            return r, run.page_first[page + stride]
        stride -= last - page + 1
        r += 1
        if r == len(runs):
            return r, 0
        run = runs[r]
        page = run.page_of[run.lo]


def _sweep_while_reachable(ref, cond):
    """The live thread's body: step while the scanner has subscribers,
    wait without holding it, and end once it is gone — a dropped store
    takes its sweep thread with it (an idle wait looks once a second)."""
    while True:
        with cond:
            while (scanner := ref()) is not None and not scanner._subs:
                scanner = None
                cond.wait(timeout=1.0)
        if scanner is None:
            return
        scanner._live_step()
