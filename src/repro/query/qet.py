"""Query Execution Tree nodes.

*"Each node of the QET is either a query or a set-operation node, and
returns a bag of object-pointers upon execution. ... Results from child
nodes are passed up the tree as soon as they are generated.  In the case
of aggregation, sort, intersection and difference nodes, at least one of
the child nodes must be complete before results can be sent further up the
tree."*

Nodes communicate through bounded :class:`Stream` queues of
:class:`~repro.catalog.table.ObjectTable` batches; every node runs in its
own thread (see :mod:`repro.query.engine`), so producers block on
backpressure instead of materializing intermediates — the ASAP push
strategy.  Bags are keyed by ``objid`` (the object pointer) for the set
operations.

A node with one child blocks iterating that child's stream.  An n-ary
streaming node (:class:`ExchangeNode`, and :class:`UnionNode`, which is
one) cannot block on any one child, so it waits on an arrival queue of
its own instead: each child stream, and the node's own output, hands
itself to that queue after every put and cancel, and the node takes the
announced child's next batch without blocking.  Only the announcement
passes through the arrival queue, never a batch, and no thread but the
node's reads its children.

Because ``objid`` is a key of every store, a set operation of two bare
SELECTs over one source is one SELECT (``A OR B``, ``A AND B`` or ``A
AND NOT B``): :func:`~repro.query.physical.fuse_set_op` rewrites it
before a tree is built, so that query runs one scan and no set node.
:class:`UnionNode`, :class:`IntersectNode` and :class:`DifferenceNode`
remain for the rest — two sources, a side that is ordered, limited or
aggregated, or a UNION whose sides' select lists differ (planning
refuses one whose output columns differ).  The paper's sort node is one
:class:`SortNode`, with or without a LIMIT.
"""

from __future__ import annotations

import itertools
import operator
import queue
import threading
import time

import numpy as np

from repro.catalog.schema import Field as SchemaField
from repro.catalog.schema import Schema
from repro.catalog.table import ObjectTable, concat_records, take_columns
from repro.htm.ranges import RangeSet
from repro.query.errors import ExecutionError

__all__ = [
    "Stream",
    "NodeStats",
    "QETNode",
    "ScanNode",
    "ProjectNode",
    "SortNode",
    "LimitNode",
    "FilterNode",
    "AggregateNode",
    "MergeAggregateNode",
    "UnionNode",
    "IntersectNode",
    "DifferenceNode",
    "ExchangeNode",
    "MergeSortNode",
]

_SENTINEL = object()


def _merge_delivered(current, batch):
    """Fold a batch's delivered-range annotation into a running union.

    ``current`` is an interval tuple (or ``None``); returns the merged
    interval tuple (or ``None`` when neither side carries one).  The
    pipeline-breaker nodes use this to carry a delivery-tracked scan's
    container bookkeeping through to their single output batch, so a
    holistic shard result still tells the coordinator which containers
    it accounts for.
    """
    intervals = getattr(batch, "delivered", None)
    if intervals is None:
        return current
    merged = RangeSet(tuple(tuple(iv) for iv in intervals))
    if current is not None:
        merged = merged.union(RangeSet(tuple(tuple(iv) for iv in current)))
    return merged.intervals


def _per_row(fn, batch):
    """``fn(batch)`` as one value per row: a compiled expression that
    evaluates to a scalar (a constant) is repeated for every row."""
    values = np.asarray(fn(batch))
    if values.shape == ():
        values = np.full(len(batch), values)
    return values


def _stable_order(keys, descending):
    """Stable argsort in either direction.

    Reversing a stable ascending argsort would reverse tie groups too;
    instead descending sorts negate the dense ranks, which is stable
    for any comparable dtype.  NaN sorts as the largest value (last
    ascending, first descending), all NaNs tied.
    """
    if not descending:
        return np.argsort(keys, kind="stable")
    _, ranks = np.unique(keys, return_inverse=True)
    return np.argsort(-ranks, kind="stable")


def _sort_order(key_arrays, descending_flags):
    """The one ORDER BY permutation: stable sorts applied from the
    least-significant key backwards, so later keys break ties of
    earlier ones and rows equal on every key keep their input order.
    A limited sort runs it over its candidates only (:func:`_top_order`)."""
    order = np.arange(len(key_arrays[0]))
    for keys, descending in reversed(list(zip(key_arrays, descending_flags))):
        order = order[_stable_order(keys[order], descending)]
    return order


def _first_key_rank(keys, descending):
    """Numbers that order rows as the key ``keys`` does in its direction
    (ties may merge: NaN with the infinity beside it, never split or
    swap), or ``None`` for a dtype they cannot express (strings, bools)."""
    if np.issubdtype(keys.dtype, np.integer):
        return ~keys if descending else keys
    if np.issubdtype(keys.dtype, np.floating):
        return np.fmax(-keys, -np.inf) if descending else np.fmin(keys, np.inf)
    return None


def _top_order(key_arrays, descending_flags, limit):
    """``_sort_order(key_arrays, descending_flags)[:limit]``, by selection.

    ``np.partition`` on a rank of the first key finds the ``limit``-th
    row's rank; every row ranked no later (ties kept, in arrival order)
    is a candidate, and only the candidates are sorted.  They are a
    prefix of the full stable order, so the permutation is the same.
    """
    rank = None
    if limit is not None and 0 < limit < len(key_arrays[0]):
        rank = _first_key_rank(key_arrays[0], descending_flags[0])
    if rank is None:
        return _sort_order(key_arrays, descending_flags)[:limit]
    bound = np.partition(rank, limit - 1)[limit - 1]
    rows = np.flatnonzero(rank <= bound)
    order = _sort_order([keys[rows] for keys in key_arrays], descending_flags)
    return rows[order[:limit]]


class Stream:
    """Bounded batch queue with cooperative cancellation.

    ``push`` returns False once the consumer cancelled, letting producers
    stop early (e.g. below a satisfied LIMIT).
    """

    def __init__(self, maxsize=8):
        self._queue = queue.Queue(maxsize=maxsize)
        self._cancelled = threading.Event()
        self._finished = False
        self.error = None
        #: arrival queues of the n-ary nodes waiting on this stream (as
        #: its consumer or as its producer): each is handed this stream
        #: after every put and cancel
        self._listeners = []

    def _announce(self):
        for arrivals in self._listeners:
            arrivals.put(self)

    def cancel(self):
        """Signal that no more batches are wanted.

        Callable by the consumer (the classic LIMIT path) *or* by a
        third party such as a session cancelling a whole query tree.
        Both sides are woken: the queue is drained so a blocked producer
        unblocks, and a sentinel is enqueued so a consumer blocked in
        ``get`` sees end-of-stream instead of waiting forever (a
        cancelled producer's ``close()`` never delivers its sentinel).
        """
        self._cancelled.set()
        # Drain so a blocked producer wakes up.
        try:
            while True:
                self._queue.get_nowait()
        except queue.Empty:
            pass
        # Wake a blocked consumer; the queue was just drained, so space
        # exists unless a producer raced a batch in (then the consumer's
        # cancelled-check after get() ends the iteration instead).
        try:
            self._queue.put_nowait(_SENTINEL)
        except queue.Full:
            pass
        self._announce()

    def cancelled(self):
        return self._cancelled.is_set()

    def pending(self):
        """Batches currently queued (approximate, lock-free snapshot).

        A closing sentinel counts too — that is fine for the intended
        use ("can a consumer get() without blocking?"), since the
        sentinel also satisfies a get immediately.
        """
        return self._queue.qsize()

    def push(self, batch):
        """Producer side; returns False if the consumer cancelled.

        The post-put re-check matters: a put blocked on a full queue can
        succeed *because* cancel() drained it, and the producer must
        still learn that nobody is listening.
        """
        while not self._cancelled.is_set():
            try:
                self._queue.put(batch, timeout=0.05)
            except queue.Full:
                continue
            self._announce()
            return not self._cancelled.is_set()
        return False

    def close(self):
        """Producer signals end of stream."""
        self.push(_SENTINEL)

    def fail(self, exc):
        """Producer signals an error; consumers re-raise."""
        self.error = exc
        self.push(_SENTINEL)

    def __iter__(self):
        """Consumer side: yields batches until the sentinel.

        A stream whose sentinel was already consumed ends immediately on
        re-iteration instead of blocking forever on the empty queue (so
        draining a result twice is a no-op, not a deadlock) — but a
        *failed* stream keeps raising on every iteration, so an error
        can never be mistaken for an empty result.
        """
        while (batch := self._next(block=True)) is not _SENTINEL:
            yield batch

    def _next(self, block):
        """One step of the iteration: the next batch, or ``_SENTINEL``
        once the stream has ended (a failed one raises instead), or —
        when ``block`` is false — ``None`` while nothing is queued."""
        if not self._finished:
            if self._cancelled.is_set() and self._queue.empty():
                self._finished = True
            else:
                try:
                    batch = self._queue.get(block)
                except queue.Empty:
                    return None
                if batch is _SENTINEL or self._cancelled.is_set():
                    self._finished = True
                else:
                    return batch
        if self.error is not None:
            if isinstance(self.error, ExecutionError):
                # Structured execution errors (e.g. an unrecoverable
                # shard failover) keep their class — callers match on it.
                raise self.error
            raise ExecutionError(str(self.error)) from self.error
        return _SENTINEL


#: how two records of a :attr:`NodeStats.COUNTERS` entry combine
_COMBINE = {"sum": operator.add, "max": max}


class NodeStats:
    """Per-node execution counters: the one record of a node's work.

    Every node keeps ``rows_out`` / ``batches_out`` and three timestamps;
    what else a node may count is declared once, in :attr:`COUNTERS`.
    Whatever carries a node's or a job's statistics somewhere — span
    attributes, EXPLAIN ANALYZE, the wire and the client's fold of it,
    ``Job.metrics()``, the query log — loops over that declaration, so a
    new counter is one line here plus the increment where the work is.
    """

    #: counter -> how two records combine (``"sum"`` or ``"max"``), in
    #: declaration order
    COUNTERS = {
        # Shared-scan I/O, leaf ScanNodes only: container deliveries
        # that needed a physical read, were served from the store's
        # BufferPool, or were pruned by the HTM cover without breaking
        # the shared sweep.
        "containers_read": "sum",
        "containers_from_pool": "sum",
        "containers_skipped": "sum",
        # Vectorized predicate passes of a ScanNode — the
        # morsel-coalescing win is this dropping from one-per-container
        # to one-per-morsel.
        "predicate_evals": "sum",
        # High-water mark of rows a buffering node held at once — the
        # evidence that ORDER BY ... LIMIT k no longer materializes the
        # full input.
        "peak_buffered_rows": "max",
        # Rows a ScanNode copied into morsels (none while each is a view).
        "rows_copied": "sum",
    }
    #: the ones ``Job.metrics()`` publishes (as ``job.<name>``)
    PUBLISHED = ("containers_read", "containers_from_pool", "containers_skipped")

    def __init__(self):
        self.rows_out = self.batches_out = 0
        #: ``perf_counter`` timestamps; ``None`` until the event happens,
        #: so a never-started node is distinguishable from one started at
        #: an arbitrary clock zero (spans and plan renderers show unset
        #: timings as None instead of nonsense deltas)
        self.started_at = self.first_output_at = self.finished_at = None
        for name in self.COUNTERS:
            setattr(self, name, 0)

    def fold(self, *others):
        """Fold other records' counters into this one (a job's nodes
        into its total, a server's nodes into the client's remote
        leaf); returns self."""
        for other in others:
            for name, how in self.COUNTERS.items():
                combined = _COMBINE[how](getattr(self, name), getattr(other, name))
                setattr(self, name, combined)
        return self

    def counters(self):
        """The non-zero counters, in declaration order."""
        return {
            name: getattr(self, name)
            for name in self.COUNTERS
            if getattr(self, name)
        }

    def note_buffered(self, rows):
        if rows > self.peak_buffered_rows:
            self.peak_buffered_rows = rows

    def note_batch(self, rows):
        now = time.perf_counter()
        if self.first_output_at is None:
            self.first_output_at = now
        self.rows_out += rows
        self.batches_out += 1


class QETNode:
    """Base class: a node with children, an output stream, and a thread."""

    name = "node"

    def __init__(self, children=()):
        self.children = list(children)
        self.output = Stream()
        self.stats = NodeStats()
        self._thread = None

    def start(self):
        """Start this node's thread (children are started by the engine)."""
        self.stats.started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run_guarded, daemon=True, name=f"qet-{self.name}"
        )
        self._thread.start()

    def join(self, timeout=None):
        if self._thread is not None:
            self._thread.join(timeout)

    def is_alive(self):
        """True while this node's thread is running."""
        return self._thread is not None and self._thread.is_alive()

    def _run_guarded(self):
        try:
            self.run()
            self.output.close()
        except Exception as exc:  # propagate to the consumer
            for child in self.children:
                child.output.cancel()
            self.output.fail(exc)
        finally:
            self.stats.finished_at = time.perf_counter()

    def _emit(self, batch):
        """Push a batch upward; returns False when cancelled."""
        if len(batch) == 0:
            return not self.output.cancelled()
        ok = self.output.push(batch)
        if ok:
            self.stats.note_batch(len(batch))
        return ok

    def run(self):
        raise NotImplementedError

    def walk(self):
        """Generator over the subtree (self first)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self):
        return f"{type(self).__name__}(children={len(self.children)})"


class ScanNode(QETNode):
    """Leaf query node: a subscriber of the store's shared sweep.

    ``plan`` is a :class:`~repro.query.optimizer.QueryPlan`.  The node
    does no container I/O of its own: it subscribes to the store's
    :class:`~repro.machines.sweep.SweepScanner` — one circular read
    path shared by every concurrent scan of the store — and receives
    *runs* of consecutive containers.  ``candidates`` (a
    :class:`~repro.htm.ranges.RangeSet` of container ids, or ``None`` to
    take the plan's HTM cover at the store's depth when the scan starts)
    is declared on the subscription, so the sweep delivers only the
    containers this query may match — it skips the rest without
    breaking the shared sweep for other queries.  The sweep decides the
    containers; the compiled ``WHERE`` decides the rows, in one
    predicate pass that tests every delivered row exactly once (its
    spatial terms included, which ``plan.region`` only bounds).

    Delivered containers are **coalesced into execution morsels**:
    deliveries accumulate until roughly ``batch_rows`` rows are
    buffered, then one vectorized predicate pass filters the whole
    morsel.  A morsel never spans two of the store's runs (the node
    flushes where a delivery crosses into another), so it is a view of
    its run when its containers are consecutive there, else one
    byte-level gather (``rows_copied``), which the predicate reads in
    place.  The node emits only the plan's ``gathered`` columns of the
    rows that pass — the ones the nodes above it read — one gather per
    column, all-pass morsels included.  ``SELECT *`` emits whole rows: a
    morsel every row passes unchanged, so a whole-catalog ``SELECT *``
    hands out read-only views of the runs and copies no row, however
    many loads the store took.  With the archive's many small
    containers (a handful of rows each) this turns tens of thousands of
    tiny numpy calls per query into a few dozen large ones; row order is
    the sweep's delivery order regardless of the morsel size
    (``batch_rows`` is positive; the engines check it).

    The morsel target *ramps up* (``RAMP_ROWS`` rows for the first
    flush, growing 4x per flush until it reaches ``batch_rows``), so the
    paper's ASAP property survives coalescing: the user's first rows
    arrive after a few hundred buffered rows, not after a full morsel,
    while the steady-state amortization is untouched.

    The node filters on its own thread; more cores come from more
    partition servers (``process_shards=True``), not from threads
    inside one node.
    """

    name = "scan"

    #: first-morsel target: small enough that time-to-first-row stays a
    #: tiny fraction of a long scan, large enough to already amortize
    #: ~100 tiny containers per vectorized pass
    RAMP_ROWS = 256

    def __init__(
        self,
        store,
        plan,
        batch_rows=4096,
        candidates=None,
        track_delivery=False,
    ):
        super().__init__(())
        self.store = store
        self.plan = plan
        self.batch_rows = int(batch_rows)
        #: the container ids this scan may read: an in-process
        #: coordinator's cover, shared by every shard scan, or a remote
        #: coordinator's disjoint assignment (endpoint holdings may
        #: overlap, so an unassigned scan could duplicate rows).
        self.candidates = candidates
        #: when True (every remote shard scan), every emitted batch is
        #: stamped with the cumulative claim of containers fully
        #: accounted for so far (resume-from-range failover
        #: bookkeeping).  Forces one-batch-per-flush emission, so the
        #: claim is exact.
        self.track_delivery = bool(track_delivery)
        #: the claim's ``[lo, hi]`` intervals; the snapshot of its last
        #: run and the index there that would extend its last interval
        self._claim, self._claim_end = [], (None, None)
        #: the node's SweepSubscription while running (I/O telemetry)
        self.subscription = None

    def _morsel(self, pieces):
        """The buffered ``[array, lo, hi]`` pieces as one table: a view
        when there is one, else one gather of their bytes."""
        if len(pieces) == 1:
            base, lo, hi = pieces[0]
            return ObjectTable(self.store.schema, base[lo:hi])
        data = concat_records([b[lo:hi] for b, lo, hi in pieces], pieces[0][0].dtype)
        self.stats.rows_copied += len(data)
        return ObjectTable(self.store.schema, data)

    def _flush(self, pieces, buffered):
        """Filter a morsel in one predicate pass and emit it; returns
        False when cancelled."""
        # A morsel only grows between flushes, so its size here is the
        # high-water mark since the last one.
        self.stats.note_buffered(buffered)
        morsel = self._morsel(pieces)
        mask = self.plan.predicate(morsel)
        self.stats.predicate_evals += 1
        gathered = self.plan.gathered
        if gathered is not None:
            data = take_columns(morsel.data, mask, gathered.numpy_dtype())
            selected = ObjectTable(gathered, data)
        else:
            selected = morsel if mask.all() else morsel.select(mask)
        if self.track_delivery and len(selected):
            # One batch per flush, never chunked: the claim says "every
            # row of these containers is in the stream up to and
            # including this batch", which chunking would falsify for
            # all but the last chunk.  Containers whose rows were all
            # filtered out ride along in the cumulative claim —
            # rescanning them after a failover would yield zero rows.
            selected.delivered = RangeSet(self._claim).intervals
            return self._emit(selected)
        for piece in selected.iter_chunks(self.batch_rows):
            if not self._emit(piece):
                return False
        return True

    @staticmethod
    def _gather(run, spans, pieces, buffered):
        """Add ``(r, k0, k1)`` spans of one of the store's runs to the
        morsel being built, which holds none of another run: one slice
        of its records per span, extending the last piece when it
        follows it.  Returns the morsel's new row count."""
        data, offsets = run.data, run.offset_list
        for _r, k0, k1 in spans:
            lo, hi = offsets[k0], offsets[k1]
            if pieces and pieces[-1][2] == lo:
                pieces[-1][2] = hi
            else:
                pieces.append([data, lo, hi])
            buffered += hi - lo
        return buffered

    def _follow_claim(self, snapshot):
        """Read the claim against the snapshot of a new delivery, before
        anything more is flushed: an interval spans ids the snapshot the
        scan read before lacked, so ids a load added — those of the
        runs written since that the earlier snapshot lacked — leave the
        claim."""
        previous, extend = self._claim_end
        if snapshot is not previous and previous is not None:
            added = snapshot.added_since(previous).tolist()
            kept = RangeSet(self._claim).difference(RangeSet.from_ids(added))
            self._claim, extend = [list(interval) for interval in kept], None
        self._claim_end = (snapshot, extend)

    def _grow_claim(self, spans):
        """Claim delivered ``(r, k0, k1)`` spans of the snapshot the
        claim follows: one interval per span, extending the last
        interval when the span continues it in the snapshot's trixel
        order, across runs too."""
        snapshot, extend = self._claim_end
        for r, k0, k1 in spans:
            run = snapshot.runs[r]
            shift = snapshot.run_first[r] - run.lo  # run index -> snapshot index
            if k0 + shift == extend:
                self._claim[-1][1] = run.id_list[k1 - 1]
            else:
                self._claim.append([run.id_list[k0], run.id_list[k1 - 1]])
            extend = k1 + shift
        self._claim_end = (snapshot, extend)

    def run(self):
        candidates = self.candidates
        if candidates is None:
            from repro.query.optimizer import shard_candidates

            candidates = shard_candidates(self.plan, self.store.depth)
        subscription = self.store.sweeper().subscribe(candidates=candidates)
        self.subscription = subscription
        try:
            self._consume(subscription)
        finally:
            # Leave the sweep (a finished subscription is already gone;
            # an early exit must not keep receiving) and fold the I/O
            # telemetry into the node stats.
            subscription.cancel()
            self.stats.containers_read += subscription.physical_reads()
            self.stats.containers_from_pool += subscription.from_pool
            self.stats.containers_skipped += subscription.skipped

    def _consume(self, subscription):
        target = self.batch_rows
        ramp = min(self.RAMP_ROWS, target)
        pieces = []
        buffered = 0

        def flush():
            nonlocal pieces, buffered, ramp
            ok = self._flush(pieces, buffered)
            pieces, buffered, ramp = [], 0, min(ramp * 4, target)
            return ok

        for delivery in subscription:
            if self.output.cancelled():
                return
            snapshot = delivery.snapshot
            if self.track_delivery:
                self._follow_claim(snapshot)
            for r, spans in itertools.groupby(delivery.spans, key=_RUN_OF_SPAN):
                run, spans = snapshot.runs[r], list(spans)
                # A morsel never spans two runs, and a claim covers
                # only flushed rows, so flush before claiming the next.
                if pieces and pieces[-1][0] is not run.data and not flush():
                    return
                if self.track_delivery:
                    # Every delivered container is accounted for — even
                    # ones whose rows all fail the WHERE, which a
                    # resumed scan would simply find empty again.
                    self._grow_claim(spans)
                buffered = self._gather(run, spans, pieces, buffered)
                if buffered >= ramp and not flush():
                    return
        if pieces and not self.output.cancelled():
            self._flush(pieces, buffered)


#: the window a sweep delivery's ``(r, k0, k1)`` span lies in
_RUN_OF_SPAN = operator.itemgetter(0)


class ProjectNode(QETNode):
    """Evaluates the select list over each incoming batch.

    ``projection`` is a non-empty list of ``(name, dtype_hint_or_None,
    fn)``; the output schema is constructed from the first batch's
    evaluated dtypes.
    """

    name = "project"

    def __init__(self, child, projection):
        super().__init__((child,))
        self.projection = list(projection)
        self._schema = None

    def run(self):
        child = self.children[0]
        for batch in child.output:
            projected = self._project(batch)
            # 1:1 batch mapping: the delivery-tracking annotation (if
            # any) describes exactly the same rows after projection.
            projected.delivered = batch.delivered
            if not self._emit(projected):
                child.output.cancel()
                return

    def _project(self, batch):
        columns = {}
        for name, _hint, fn in self.projection:
            columns[name] = _per_row(fn, batch)
        if self._schema is None:
            fields = []
            for name, _hint, _fn in self.projection:
                arr = columns[name]
                shape = arr.shape[1:]
                fields.append(SchemaField(name, arr.dtype.str, shape=tuple(shape)))
            self._schema = Schema("projection", fields)
        return ObjectTable.from_columns(self._schema, columns)


class SortNode(QETNode):
    """ORDER BY, with or without a LIMIT: a pipeline breaker.

    Every child must complete before any row is emitted (the paper's
    caveat about sort nodes); the children are drained in child order
    and sorted as one table, stably: rows equal on every key keep their
    input order, and a DESC key reverses value groups, not rows.

    With a ``limit`` (kind ``topk``) it emits the first ``limit`` rows
    and buffers ``O(limit + batch)`` (``peak_buffered_rows``): past
    ``prune_rows`` it prunes back to ``limit``, whose last key tuple
    drops every later row not sorting strictly before it.  Arrival order
    is kept between prunes, so the answer is the unlimited sort's prefix.
    A prune and the end select before they sort (:func:`_top_order`):
    only the rows whose first key sorts no later than the ``limit``-th
    row's are stably sorted, so a large batch costs a partition and a
    sort of about ``limit`` rows (more if its first key ties at the
    bound).
    """

    def __init__(self, child, key_fns, descending_flags, limit=None, prune_rows=None):
        super().__init__((child,))
        self.key_fns = list(key_fns)
        self.descending_flags = list(descending_flags)
        self.limit = self.prune_rows = None
        if limit is not None:
            self.limit = int(limit)
            if prune_rows is None:
                prune_rows = max(2 * self.limit, 1024)
            self.prune_rows = max(int(prune_rows), self.limit)

    @property
    def name(self):
        return "sort" if self.limit is None else "topk"

    def _strictly_before(self, keys, bound):
        """Mask of rows whose key tuple sorts strictly before ``bound``,
        a NaN comparing as +inf and tying with NaN (:func:`_stable_order`)."""
        length = len(keys[0])
        lt = np.zeros(length, dtype=bool)
        eq = np.ones(length, dtype=bool)
        for array, bound_value, descending in zip(keys, bound, self.descending_flags):
            is_float = np.issubdtype(array.dtype, np.floating)
            value_nan = np.isnan(array) if is_float else None
            bound_nan = is_float and bool(np.isnan(bound_value))
            if descending:
                key_lt = array > bound_value
                if is_float and not bound_nan:
                    key_lt |= value_nan  # NaN (= +inf) leads a DESC order
            else:
                key_lt = array < bound_value
                if bound_nan:
                    key_lt |= ~value_nan  # everything precedes NaN ascending
            key_eq = value_nan if bound_nan else (array == bound_value)
            lt |= eq & key_lt
            eq &= key_eq
        return lt

    def _sorted(self, batches, keys):
        """The buffer as one table, its keys and its order to the limit."""
        table = ObjectTable.concat_all(batches)
        keys = [np.concatenate(arrays) for arrays in zip(*keys)]
        return table, keys, _top_order(keys, self.descending_flags, self.limit)

    def run(self):
        if self.limit == 0:
            for child in self.children:
                child.output.cancel()
            return
        batches = []  # buffered rows, in arrival order
        keys = []  # each buffered batch's key arrays
        buffered = 0
        threshold = None  # key tuple of the current limit-th row
        delivered = None  # union of the input's delivery annotations
        for child in self.children:
            for batch in child.output:
                delivered = _merge_delivered(delivered, batch)
                batch_keys = [_per_row(fn, batch) for fn in self.key_fns]
                if threshold is not None:
                    mask = self._strictly_before(batch_keys, threshold)
                    if not mask.any():
                        continue
                    batch = batch.take(mask)
                    batch_keys = [a[mask] for a in batch_keys]
                batches.append(batch)
                keys.append(batch_keys)
                buffered += len(batch)
                if self.limit is None:
                    continue
                self.stats.note_buffered(buffered)
                if buffered > self.prune_rows:
                    table, table_keys, order = self._sorted(batches, keys)
                    threshold = tuple(a[order[-1]] for a in table_keys)
                    kept = np.sort(order)  # back to arrival order
                    batches = [table.take(kept)]
                    keys = [[a[kept] for a in table_keys]]
                    buffered = self.limit
        if not batches or (self.limit is not None and buffered == 0):
            return
        table, _keys, order = self._sorted(batches, keys)
        out = table.take(order)
        out.delivered = delivered
        self._emit(out)


class LimitNode(QETNode):
    """LIMIT: forwards rows until the quota is filled, then cancels below."""

    name = "limit"

    def __init__(self, child, limit):
        super().__init__((child,))
        self.limit = int(limit)

    def run(self):
        child = self.children[0]
        remaining = self.limit
        if remaining == 0:
            child.output.cancel()
            return
        for batch in child.output:
            if len(batch) > remaining:
                truncated = batch.take(slice(remaining))
                truncated.delivered = batch.delivered
                batch = truncated
            remaining -= len(batch)
            if not self._emit(batch):
                child.output.cancel()
                return
            if remaining <= 0:
                child.output.cancel()
                return


class FilterNode(QETNode):
    """Row filter over streaming batches (used for HAVING on aggregates)."""

    name = "filter"

    def __init__(self, child, mask_fn):
        super().__init__((child,))
        self.mask_fn = mask_fn

    def run(self):
        child = self.children[0]
        for batch in child.output:
            mask = np.asarray(_per_row(self.mask_fn, batch), dtype=bool)
            selected = batch.select(mask)
            if len(selected):
                if not self._emit(selected):
                    child.output.cancel()
                    return


def _groups(key_arrays):
    """One grouping pass: lexsort the key arrays and find each group's
    first sorted row.  Returns ``(order, starts, group_keys)`` — the
    sorting permutation, the group starts in sorted order, and each
    group's key values."""
    order = np.lexsort(key_arrays[::-1])
    sorted_keys = [a[order] for a in key_arrays]
    boundary = np.zeros(len(order), dtype=bool)
    boundary[0] = True
    for keys in sorted_keys:
        boundary[1:] |= keys[1:] != keys[:-1]
    starts = np.nonzero(boundary)[0]
    return order, starts, [a[starts] for a in sorted_keys]


def _aggregate_dtype(op, base):
    """The dtype of an aggregate over ``base``-typed values: the one rule
    for the node's arrays and the planner's static schema.  A ``count``
    is int64, a ``sum`` follows ``np.sum``'s promotion, an ``avg`` is its
    sum's dtype when that is floating (``np.mean``'s rule: float32 stays
    float32) and float64 otherwise, ``min`` / ``max`` keep ``base``."""
    base = np.dtype(base)
    if op == "count":
        return np.dtype(np.int64)
    if op in ("sum", "avg"):
        total = np.sum(np.zeros(1, dtype=base)).dtype
        if op == "avg" and not np.issubdtype(total, np.floating):
            return np.dtype(np.float64)
        return total
    return base


class _GroupedAccumulator:
    """Running vectorized partial aggregates over a stream of batches.

    Each batch is grouped with one ``np.lexsort`` + boundary pass and
    reduced per group with ``ufunc.reduceat`` (SUM/MIN/MAX) or boundary
    diffs (COUNT); the batch partials are then merged into the running
    state (itself a small sorted partial table) by re-sorting and
    re-reducing — so a million input rows cost a handful of vectorized
    passes, never a Python loop per group, and memory stays
    ``O(distinct groups + batch)``.

    The running state is also what crosses the wire when an aggregate is
    split: its columns, :attr:`state_names`, are every group key (a
    hidden one as ``group(<k>)``) and every partial (AVG as the pair
    ``sum(<name>)`` / ``count(<name>)``, COUNT as a count, SUM / MIN /
    MAX as themselves); no identifier or default name can spell the
    parenthesised ones, so no output name clashes with them.  A shard's
    accumulator folds rows (:meth:`update`) and emits its state; the
    coordinator's folds those tables (:meth:`absorb`) and finishes the
    output names as one store does — AVG is the quotient of its pair,
    weighted by every shard's count.
    """

    #: how two partials of one group combine
    _COMBINE = {
        "count": np.add,
        "sum": np.add,
        "min": np.minimum,
        "max": np.maximum,
    }

    def __init__(self, group_specs, aggregate_specs):
        self.group_specs = list(group_specs)
        hidden = (f"group({k})" for k in range(len(self.group_specs)))
        #: the state's name of each group key, in ``group_specs`` order
        self.key_names = [
            name if name is not None else next(hidden)
            for name, _fn in self.group_specs
        ]
        #: the state's partial columns: ``(column, op, fn)``
        self.partials = []
        #: AVG output name -> its (sum, count) partial columns
        self.averages = {}
        for name, kind, fn in aggregate_specs:
            if kind == "AVG":
                pair = (f"sum({name})", f"count({name})")
                self.partials += [(pair[0], "sum", fn), (pair[1], "count", fn)]
                self.averages[name] = pair
            else:
                self.partials.append((name, kind.lower(), fn))
        #: running distinct group key arrays (lexsorted) + partial columns
        self.keys = None
        self.columns = None
        self.rows_seen = 0

    @property
    def state_names(self):
        """The running state's columns, in the order it is emitted."""
        return self.key_names + [column for column, _op, _fn in self.partials]

    def schema(self, rows, names):
        """The :class:`Schema` :meth:`table` gives ``names`` over input
        like ``rows`` (a zero-row table will do): the planner's static
        schema of an aggregate, partial or final."""
        dtypes = {
            key: np.asarray(fn(rows)).dtype
            for key, (_name, fn) in zip(self.key_names, self.group_specs)
        }
        for column, op, fn in self.partials:
            dtypes[column] = _aggregate_dtype(op, np.asarray(fn(rows)).dtype)
        for name, (sums, _counts) in self.averages.items():
            dtypes[name] = _aggregate_dtype("avg", dtypes[sums])
        return Schema("aggregation", [SchemaField(n, dtypes[n].str) for n in names])

    def _reduce(self, key_arrays, value_arrays, rows):
        """One sorted-partial table for a batch: ``(group_keys, columns)``."""
        if self.group_specs:
            order, starts, group_keys = _groups(key_arrays)
        else:
            order = slice(None)
            starts = np.zeros(1, dtype=np.intp)
            group_keys = []
        ends = np.append(starts[1:], rows)
        columns = {}
        for column, op, _fn in self.partials:
            if op == "count":
                columns[column] = (ends - starts).astype(np.int64)
                continue
            values = value_arrays[column][order]
            values = values.astype(_aggregate_dtype(op, values.dtype), copy=False)
            columns[column] = self._COMBINE[op].reduceat(values, starts)
        return group_keys, columns

    def update(self, batch):
        """Fold a batch of input rows."""
        rows = len(batch)
        if rows == 0:
            return
        self.rows_seen += rows
        key_arrays = [_per_row(fn, batch) for _name, fn in self.group_specs]
        value_arrays = {}
        for column, op, fn in self.partials:
            if op != "count" and column not in value_arrays:
                value_arrays[column] = _per_row(fn, batch)
        group_keys, columns = self._reduce(key_arrays, value_arrays, rows)
        self._merge_partials(group_keys, columns)

    def absorb(self, state):
        """Fold another accumulator's state table (a shard's partials)."""
        if len(state) == 0:
            return
        self.rows_seen += len(state)
        self._merge_partials(
            [np.asarray(state[key]) for key in self.key_names],
            {column: np.asarray(state[column]) for column, _op, _fn in self.partials},
        )

    def _merge_partials(self, group_keys, columns):
        """Fold one sorted partial table into the running state."""
        if self.keys is None:
            self.keys, self.columns = group_keys, columns
            return
        if not self.group_specs:
            # one global group: combine the scalars directly
            for column, op, _fn in self.partials:
                self.columns[column] = self._COMBINE[op](
                    self.columns[column], columns[column]
                )
            return
        # Merge two sorted partial tables: concatenate, re-sort, re-reduce.
        order, starts, self.keys = _groups(
            [np.concatenate([a, b]) for a, b in zip(self.keys, group_keys)]
        )
        for column, op, _fn in self.partials:
            merged = np.concatenate([self.columns[column], columns[column]])
            self.columns[column] = self._COMBINE[op].reduceat(
                merged[order], starts
            )

    def table(self, names):
        """The ``names`` columns as one table, groups in sorted-key order:
        a plan's output names finish the aggregate, :attr:`state_names`
        are the running state."""
        arrays = dict(zip(self.key_names, self.keys), **self.columns)
        for name in names:
            if name in self.averages:
                sums, counts = (arrays[c] for c in self.averages[name])
                dtype = _aggregate_dtype("avg", sums.dtype)
                arrays[name] = np.asarray(sums / counts, dtype=dtype)
        fields = [SchemaField(name, arrays[name].dtype.str) for name in names]
        return ObjectTable.from_columns(Schema("aggregation", fields), arrays)


class AggregateNode(QETNode):
    """GROUP BY aggregation: incremental, vectorized, still a breaker.

    ``group_specs`` is a list of ``(name, fn)`` for grouping keys — a
    ``None`` name groups by the key without emitting it as a column;
    ``aggregate_specs`` is a list of ``(name, kind, fn)`` where ``kind``
    is one of COUNT/SUM/AVG/MIN/MAX and ``fn`` evaluates the aggregated
    expression over input rows.  Output columns appear in
    ``output_order`` (a list of names drawn from both spec lists), so the
    select-list order is preserved.

    Per the paper, the child must complete before any group can be
    emitted ("in the case of aggregation ... nodes, at least one of the
    child nodes must be complete") — but *completeness of output* does
    not require *materializing the input*: each incoming batch folds
    into a running partial-aggregate table (see
    :class:`_GroupedAccumulator`), so the node holds ``O(groups)``
    state instead of re-concatenating every fragment of the scan.

    A split aggregate is this node in two phases.  A shard's
    ``output_order`` is the accumulator's ``state_names``, so it emits
    its partials instead of finishing them; the coordinator's
    :class:`MergeAggregateNode` folds those tables and finishes.
    """

    name = "aggregate"

    def __init__(self, child, group_specs, aggregate_specs, output_order):
        super().__init__((child,))
        self.group_specs = list(group_specs)
        self.aggregate_specs = list(aggregate_specs)
        self.output_order = list(output_order)

    @property
    def state_names(self):
        """The columns of this node's partial state (what a shard's half
        emits and the coordinator's folds)."""
        return _GroupedAccumulator(self.group_specs, self.aggregate_specs).state_names

    def _fold(self, accumulator, batch):
        accumulator.update(batch)

    def run(self):
        child = self.children[0]
        delivered = None
        accumulator = _GroupedAccumulator(self.group_specs, self.aggregate_specs)
        for batch in child.output:
            delivered = _merge_delivered(delivered, batch)
            self._fold(accumulator, batch)
            if accumulator.keys:
                self.stats.note_buffered(len(accumulator.keys[0]))
        if accumulator.rows_seen == 0:
            return
        out = accumulator.table(self.output_order)
        out.delivered = delivered
        self._emit(out)


class MergeAggregateNode(AggregateNode):
    """The coordinator's GROUP BY over shard streams: an
    :class:`AggregateNode` whose input is the shards' partial tables.

    Every shard folded its own rows and shipped its accumulator's state;
    this node folds those states into one accumulator and finishes the
    output names exactly as one store would, so its result is named and
    typed as a single store's.
    """

    def _fold(self, accumulator, batch):
        accumulator.absorb(batch)


def _objids(batch):
    if "objid" not in batch.schema:
        raise ExecutionError(
            "set operations need the objid pointer column in both operands"
        )
    return np.asarray(batch["objid"], dtype=np.int64)


class _SeenIds:
    """The objids a union has emitted, as sorted runs, each at most half
    as long as the one before it: a membership test is a binary search
    per run, and a run that outgrows the bound merges into its
    predecessor, so each id is copied O(log n) times in all."""

    def __init__(self):
        self._runs = []

    def first_unseen(self, ids):
        """Mask of the rows of ``ids`` holding the first occurrence of
        an id not seen before; those ids count as seen from now on."""
        unique, first = np.unique(ids, return_index=True)
        unseen = np.ones(len(unique), dtype=bool)
        for run in self._runs:
            at = np.searchsorted(run, unique).clip(max=len(run) - 1)
            unseen &= run[at] != unique
        fresh = np.zeros(len(ids), dtype=bool)
        fresh[first[unseen]] = True
        if unseen.any():
            runs = self._runs
            runs.append(unique[unseen])
            while len(runs) > 1 and 2 * len(runs[-1]) > len(runs[-2]):
                last = runs.pop()
                runs[-1] = np.sort(np.concatenate([runs[-1], last]), kind="stable")
        return fresh


class _HashedRightNode(QETNode):
    """Shared base for intersect/difference: drains the right child's
    pointers into one array first, then streams the left child through
    a membership test against it — "at least one of the child nodes
    must be complete"."""

    keep_if_present = True

    def __init__(self, left, right):
        super().__init__((left, right))

    def run(self):
        left, right = self.children
        right_ids = np.concatenate(
            [np.empty(0, dtype=np.int64)] + [_objids(batch) for batch in right.output]
        )
        for batch in left.output:
            present = np.isin(_objids(batch), right_ids)
            mask = present if self.keep_if_present else ~present
            if mask.any():
                if not self._emit(batch.select(mask)):
                    left.output.cancel()
                    return


class IntersectNode(_HashedRightNode):
    """Bag intersection on object pointers."""

    name = "intersect"
    keep_if_present = True


class DifferenceNode(_HashedRightNode):
    """Bag difference (left EXCEPT right) on object pointers."""

    name = "difference"
    keep_if_present = False


class ExchangeNode(QETNode):
    """N-ary streaming gather of shard sub-trees (no dedup, no order).

    The distributed executor's union point: each child is the root of one
    partition server's sub-plan, drained concurrently; batches are
    forwarded upward the moment any shard produces one, so
    time-to-first-row is set by the *fastest* shard.  Zero children is a
    well-formed empty stream (every shard pruned by the HTM cover).

    The node reads its children's streams on its own thread, sleeping on
    its arrival queue (see the module docstring): a ready batch of any
    child is forwarded while its siblings are idle, and a cancelled
    output (a met LIMIT above, ``Job.cancel``) wakes it at once.
    """

    name = "exchange"

    def __init__(self, children):
        super().__init__(tuple(children))
        self._arrivals = queue.SimpleQueue()
        for stream in (self.output, *(child.output for child in self.children)):
            stream._listeners.append(self._arrivals)

    def _forward(self, batch):
        """The rows of a child's batch this node emits."""
        return batch

    def run(self):
        pending = {child.output for child in self.children}
        while pending:
            stream = self._arrivals.get()
            if self.output.cancelled():
                break
            if stream not in pending:
                continue  # a stream that has ended, or this node's output
            batch = stream._next(block=False)
            if batch is _SENTINEL:
                pending.discard(stream)
            elif batch is not None and not self._emit(self._forward(batch)):
                break
        for stream in pending:
            stream.cancel()


class UnionNode(ExchangeNode):
    """Bag union with pointer dedup: an :class:`ExchangeNode` over its
    two operands that keeps only each objid's first occurrence; later
    duplicates are dropped.  No pipeline breaking — rows flow as soon
    as either child produces them.
    """

    name = "union"

    def __init__(self, left, right):
        super().__init__((left, right))
        self._seen = _SeenIds()

    def _forward(self, batch):
        return batch.select(self._seen.first_unseen(_objids(batch)))


class MergeSortNode(SortNode):
    """The coordinator's ORDER BY over shard streams: a :class:`SortNode`
    with one child per shard.

    Each shard sorts (and LIMIT-trims) its own rows; the coordinator
    drains the shard streams in child order and sorts them as one table
    with the same stable order as every other ORDER BY, so NaN keys and
    DESC tie groups behave exactly as on one store.  Ties order by shard
    index, then the shard's own order.  A shard input need not be one
    sorted run (a failed-over shard's stream is several).
    """

    name = "merge_sort"

    def __init__(self, children, key_fns, descending_flags):
        super().__init__(None, key_fns, descending_flags)
        self.children = list(children)
