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
"""

from __future__ import annotations

import operator
import queue
import threading
import time

import numpy as np

from repro.catalog.schema import Field as SchemaField
from repro.catalog.schema import Schema
from repro.catalog.table import ObjectTable, concat_records
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
    "TopKNode",
    "FilterNode",
    "AggregateNode",
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
                return not self._cancelled.is_set()
            except queue.Full:
                continue
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
        while not self._finished:
            if self._cancelled.is_set() and self._queue.empty():
                self._finished = True
                break
            batch = self._queue.get()
            if batch is _SENTINEL:
                self._finished = True
                break
            if self._cancelled.is_set():
                self._finished = True
                break
            yield batch
        if self.error is not None:
            if isinstance(self.error, ExecutionError):
                # Structured execution errors (e.g. an unrecoverable
                # shard failover) keep their class — callers match on it.
                raise self.error
            raise ExecutionError(str(self.error)) from self.error


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
        # Vectorized predicate/region passes of a ScanNode — the
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
    *runs* of consecutive containers.  Pruned trixel ranges (the
    cover's candidate set) are declared on the subscription, so this
    query skips containers it cannot match without breaking the shared
    sweep for other queries.

    Delivered containers are **coalesced into execution morsels**: runs
    accumulate until roughly ``batch_rows`` rows are buffered, then one
    vectorized predicate pass (plus one region-mask pass over just the
    rows of partially-covered trixels) filters the whole morsel — a view
    of the store's arena when its containers are consecutive there, else
    one byte-level gather (``rows_copied``).  With
    the archive's many small containers (a handful of rows each) this
    turns tens of thousands of tiny numpy calls per query into a few
    dozen large ones, while answers stay exact — containers are
    classified against the HTM cover per delivery, and row order is the
    sweep's delivery order regardless of the morsel size
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
        coverage=None,
        restrict=None,
        track_delivery=False,
    ):
        super().__init__(())
        self.store = store
        self.plan = plan
        self.batch_rows = int(batch_rows)
        #: optional precomputed Coverage at the store's depth; a
        #: distributed executor computes the cover once and shares it
        #: across every shard scan instead of re-covering per server.
        self.coverage = coverage
        #: optional :class:`~repro.htm.ranges.RangeSet` of container ids
        #: this scan may read — the coordinator's disjoint assignment on
        #: a replicated cluster, where endpoint holdings overlap and an
        #: unrestricted scan would duplicate rows across shards.
        self.restrict = restrict
        #: when True, every emitted batch is stamped with the cumulative
        #: set of containers fully accounted for so far (resume-from-
        #: range failover bookkeeping).  Forces one-batch-per-flush
        #: emission, so the annotation is exact.
        self.track_delivery = bool(track_delivery)
        self._delivered_ids = []
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

    def _filter_morsel(self, morsel, partial_spans):
        """One vectorized filter pass over a buffered morsel.

        ``partial_spans`` are ``(start, stop)`` row ranges of containers
        only partially inside the region's cover — just those rows get
        the exact geometric test.  Returns the selected-rows table.
        """
        predicate = self.plan.predicate
        region = self.plan.region
        mask = np.asarray(predicate(morsel), dtype=bool)
        if mask.shape == ():
            mask = np.full(len(morsel), bool(mask))
        if partial_spans:
            rows = np.concatenate(
                [np.arange(lo, hi) for lo, hi in partial_spans]
            )
            data = morsel.data
            positions = np.stack(
                [data["cx"][rows], data["cy"][rows], data["cz"][rows]],
                axis=-1,
            )
            mask[rows] &= region.contains(positions)
        return morsel.select(mask)

    def _flush(self, pieces, partial_spans, buffered):
        """Filter a morsel and emit it; returns False when cancelled."""
        # A morsel only grows between flushes, so its size here is the
        # high-water mark since the last one.
        self.stats.note_buffered(buffered)
        selected = self._filter_morsel(self._morsel(pieces), partial_spans)
        self.stats.predicate_evals += 1
        if self.track_delivery and len(selected):
            # One batch per flush, never chunked: the annotation says
            # "every row of these containers is in the stream up to and
            # including this batch", which chunking would falsify for
            # all but the last chunk.  Containers whose rows were all
            # filtered out ride along in the cumulative set — rescanning
            # them after a failover would yield zero rows anyway.
            selected.delivered = RangeSet.from_ids(self._delivered_ids).intervals
            return self._emit(selected)
        for piece in selected.iter_chunks(self.batch_rows):
            if not self._emit(piece):
                return False
        return True

    def _gather(self, run, cover, pieces, partial_spans, buffered):
        """Add a delivered run's containers to the morsel being built.

        The one place a delivered container is classified against
        ``cover`` (``(region, inside, partial)``): dropped, kept
        wholesale, or kept with its row span noted in ``partial_spans``
        for the exact geometric test.  A kept container's arena rows
        extend the last piece when they follow it; its overflow rows are
        a piece of their own.  Returns the morsel's new row count.
        """
        region, inside, partial = cover
        restrict = self.restrict
        arena, overflow = run.snapshot.arena, run.snapshot.overflow
        for htm_id, lo, hi, _from_pool in run.items:
            if restrict is not None and not restrict.contains(htm_id):
                # Not this scan's assignment (another replica holds it,
                # or it was already delivered before a failover).
                # Checked per container, not just via subscription
                # candidates, because delivery is run-granular.
                continue
            bisected = region is not None and not inside.contains(htm_id)
            if bisected and not partial.contains(htm_id):
                # Outside the cover: unreachable via candidates, but
                # delivery is run-granular.
                continue
            if pieces and pieces[-1][0] is arena and pieces[-1][2] == lo:
                pieces[-1][2] = hi
            else:
                pieces.append([arena, lo, hi])
            rows = hi - lo
            extra = overflow.get(htm_id)
            if extra is not None:
                pieces.append([extra, 0, len(extra)])
                rows += len(extra)
            if bisected:
                partial_spans.append((buffered, buffered + rows))
            buffered += rows
        return buffered

    def run(self):
        region = self.plan.region
        inside = partial = None
        candidates = None
        if region is not None:
            from repro.htm.cover import cover_region

            coverage = self.coverage
            if coverage is None:
                coverage = cover_region(region, self.store.depth)
            inside, partial = coverage.inside, coverage.partial
            candidates = coverage.candidates()
        if self.restrict is not None:
            candidates = (
                self.restrict
                if candidates is None
                else candidates.intersect(self.restrict)
            )
        subscription = self.store.sweeper().subscribe(candidates=candidates)
        self.subscription = subscription
        cover = (region, inside, partial)
        try:
            self._consume(subscription, cover)
        finally:
            # Leave the sweep (a finished subscription is already gone;
            # an early exit must not keep receiving) and fold the I/O
            # telemetry into the node stats.
            subscription.cancel()
            self.stats.containers_read += subscription.physical_reads()
            self.stats.containers_from_pool += subscription.from_pool
            self.stats.containers_skipped += subscription.skipped

    def _consume(self, subscription, cover):
        target = self.batch_rows
        ramp = min(self.RAMP_ROWS, target)
        pieces = []
        partial_spans = []
        buffered = 0
        for run in subscription:
            if self.output.cancelled():
                return
            if self.track_delivery:
                # Every delivered container is accounted for — even
                # dropped ones, which a resumed scan would simply find
                # empty again.
                self._delivered_ids.extend(item[0] for item in run.items)
            buffered = self._gather(run, cover, pieces, partial_spans, buffered)
            if buffered >= ramp and pieces:
                if not self._flush(pieces, partial_spans, buffered):
                    return
                pieces, partial_spans, buffered = [], [], 0
                ramp = min(ramp * 4, target)
        if pieces and not self.output.cancelled():
            self._flush(pieces, partial_spans, buffered)


class ProjectNode(QETNode):
    """Evaluates the select list over each incoming batch.

    ``projection`` is a list of ``(name, dtype_hint_or_None, fn)``; the
    output schema is constructed from the first batch's evaluated dtypes.
    An empty projection list means pass-through (``SELECT *``).
    """

    name = "project"

    def __init__(self, child, projection):
        super().__init__((child,))
        self.projection = list(projection)
        self._schema = None

    def run(self):
        child = self.children[0]
        for batch in child.output:
            if not self.projection:
                if not self._emit(batch):
                    child.output.cancel()
                    return
                continue
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
            value = fn(batch)
            value = np.asarray(value)
            if value.shape == ():
                value = np.full(len(batch), value)
            columns[name] = value
        if self._schema is None:
            fields = []
            for name, _hint, _fn in self.projection:
                arr = columns[name]
                shape = arr.shape[1:]
                fields.append(SchemaField(name, arr.dtype.str, shape=tuple(shape)))
            self._schema = Schema("projection", fields)
        return ObjectTable.from_columns(self._schema, columns)


class SortNode(QETNode):
    """ORDER BY: a pipeline breaker.

    The child must complete before any row is emitted (exactly the
    paper's caveat about sort nodes).  ``key_fns`` are evaluated against
    the drained table; later keys break ties of earlier ones.  Both
    directions are *stable*: rows equal on every key keep their input
    order, and a DESC key reverses value groups, not the rows within
    them — so ``ORDER BY a DESC, b`` still resolves ``a``-ties by ``b``.
    """

    name = "sort"

    def __init__(self, child, key_fns, descending_flags):
        super().__init__((child,))
        self.key_fns = list(key_fns)
        self.descending_flags = list(descending_flags)

    @staticmethod
    def _stable_order(keys, descending):
        """Stable argsort in either direction.

        Reversing a stable ascending argsort would reverse tie groups
        too; instead descending sorts negate the dense ranks, which is
        stable for any comparable dtype.
        """
        if not descending:
            return np.argsort(keys, kind="stable")
        _, ranks = np.unique(keys, return_inverse=True)
        return np.argsort(-ranks, kind="stable")

    def run(self):
        child = self.children[0]
        batches = list(child.output)
        if not batches:
            return
        delivered = None
        for batch in batches:
            delivered = _merge_delivered(delivered, batch)
        table = ObjectTable.concat_all(batches)
        order = np.arange(len(table))
        # Stable sorts applied from the least-significant key backwards.
        for key_fn, descending in reversed(list(zip(self.key_fns, self.descending_flags))):
            keys = np.asarray(key_fn(table.take(order)))
            order = order[self._stable_order(keys, descending)]
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
                truncated = batch.take(np.arange(remaining))
                truncated.delivered = batch.delivered
                batch = truncated
            remaining -= len(batch)
            if not self._emit(batch):
                child.output.cancel()
                return
            if remaining <= 0:
                child.output.cancel()
                return


class TopKNode(QETNode):
    """``ORDER BY ... LIMIT k`` fused into one streaming, bounded node.

    Replaces the ``SortNode -> LimitNode`` pipeline breaker for queries
    that only want the top ``k`` rows: instead of materializing and
    sorting the full input, the node keeps a candidate buffer that is
    pruned back to ``k`` rows (stable multi-key selection) whenever it
    grows past ``prune_rows``, and remembers the current ``k``-th key
    tuple as a *running threshold* — incoming rows that cannot beat it
    are dropped with one vectorized comparison before they are ever
    buffered.  Peak memory is ``O(k + batch)``, not ``O(total rows)``
    (asserted via ``stats.peak_buffered_rows``).

    Output is row-for-row identical to ``SortNode`` + ``LimitNode``,
    including tie order: the buffer preserves arrival order between
    prunes, pruning uses the same stable multi-key ordering as
    :class:`SortNode` (rows equal on every key keep their input order,
    DESC reverses value groups, not rows within them), and a late row
    whose keys *equal* the threshold can never displace an
    earlier-arrived candidate — so filtering strictly-worse-or-equal
    rows is exact, not approximate.
    """

    name = "topk"

    def __init__(
        self,
        child,
        key_fns,
        descending_flags,
        limit,
        prune_rows=None,
    ):
        super().__init__((child,))
        self.key_fns = list(key_fns)
        self.descending_flags = list(descending_flags)
        self.limit = int(limit)
        if prune_rows is None:
            prune_rows = max(2 * self.limit, 1024)
        self.prune_rows = max(int(prune_rows), self.limit)
        self._schema = None

    def _keys_for(self, batch):
        arrays = []
        for fn in self.key_fns:
            array = np.asarray(fn(batch))
            if array.shape == ():
                array = np.full(len(batch), array)
            arrays.append(array)
        return arrays

    def _order(self, keys):
        """Stable multi-key argsort — exactly SortNode's semantics."""
        order = np.arange(len(keys[0]))
        for index in range(len(keys) - 1, -1, -1):
            order = order[
                SortNode._stable_order(
                    keys[index][order], self.descending_flags[index]
                )
            ]
        return order

    def _strictly_before(self, keys, bound):
        """Mask of rows whose key tuple sorts strictly before ``bound``.

        NaN keys follow :meth:`SortNode._stable_order`'s semantics — a
        NaN compares as +inf (last ascending, first descending) and ties
        with other NaNs — so the threshold filter can never drop a row
        the unfused sort-then-limit plan would have kept.
        """
        length = len(keys[0])
        lt = np.zeros(length, dtype=bool)
        eq = np.ones(length, dtype=bool)
        for array, bound_value, descending in zip(
            keys, bound, self.descending_flags
        ):
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

    def run(self):
        child = self.children[0]
        k = self.limit
        if k == 0:
            child.output.cancel()
            return
        data = None  # candidate rows, in arrival order
        keys = None  # aligned key arrays
        threshold = None  # key tuple of the current k-th best candidate
        delivered = None  # union of the input's delivery annotations
        for batch in child.output:
            delivered = _merge_delivered(delivered, batch)
            if self._schema is None:
                self._schema = batch.schema
            batch_keys = self._keys_for(batch)
            rows = batch.data
            if threshold is not None:
                mask = self._strictly_before(batch_keys, threshold)
                if not mask.any():
                    continue
                rows = rows[mask]
                batch_keys = [a[mask] for a in batch_keys]
            if data is None:
                data, keys = rows, batch_keys
            else:
                data = np.concatenate([data, rows])
                keys = [
                    np.concatenate([a, b]) for a, b in zip(keys, batch_keys)
                ]
            self.stats.note_buffered(len(data))
            if len(data) > self.prune_rows:
                order = self._order(keys)
                worst = order[k - 1]
                threshold = tuple(a[worst] for a in keys)
                kept = np.sort(order[:k])  # back to arrival order
                data = data[kept]
                keys = [a[kept] for a in keys]
        if data is None or len(data) == 0:
            return
        order = self._order(keys)[:k]
        out = ObjectTable(self._schema, data[order])
        out.delivered = delivered
        self._emit(out)

class FilterNode(QETNode):
    """Row filter over streaming batches (used for HAVING on aggregates)."""

    name = "filter"

    def __init__(self, child, mask_fn):
        super().__init__((child,))
        self.mask_fn = mask_fn

    def run(self):
        child = self.children[0]
        for batch in child.output:
            mask = np.asarray(self.mask_fn(batch), dtype=bool)
            if mask.shape == ():
                mask = np.full(len(batch), bool(mask))
            selected = batch.select(mask)
            if len(selected):
                if not self._emit(selected):
                    child.output.cancel()
                    return


class _GroupedAccumulator:
    """Running vectorized partial aggregates over a stream of batches.

    Each batch is grouped with one ``np.lexsort`` + boundary pass and
    reduced per group with ``ufunc.reduceat`` (SUM/MIN/MAX) or boundary
    diffs (COUNT); the batch partials are then merged into the running
    state (itself a small sorted partial table) by re-sorting and
    re-reducing — so a million input rows cost a handful of vectorized
    passes, never a Python loop per group, and memory stays
    ``O(distinct groups + batch)``.  AVG decomposes into a SUM and a
    COUNT partial and is finalized as their quotient, exactly like the
    distributed partial-aggregate recombination path.
    """

    #: how batch partials combine into the running partials
    _COMBINE = {
        "count": np.add,
        "sum": np.add,
        "min": np.minimum,
        "max": np.maximum,
    }

    def __init__(self, group_specs, aggregate_specs):
        self.group_specs = list(group_specs)
        #: internal partial columns: ``(column, op, fn)``
        self.partials = []
        #: output name -> ("col", column) | ("avg", sum_col, count_col)
        self.finals = {}
        for name, kind, fn in aggregate_specs:
            if kind == "AVG":
                self.partials.append((f"{name}\x00sum", "sum", fn))
                self.partials.append((f"{name}\x00count", "count", fn))
                self.finals[name] = ("avg", f"{name}\x00sum", f"{name}\x00count")
            elif kind == "COUNT":
                self.partials.append((name, "count", fn))
                self.finals[name] = ("col", name, None)
            else:  # SUM / MIN / MAX combine with themselves
                self.partials.append((name, kind.lower(), fn))
                self.finals[name] = ("col", name, None)
        #: dtype a SUM partial accumulates in (np.sum's promotion rules),
        #: resolved from the first batch per column
        self._sum_dtypes = {}
        #: running distinct group key arrays (lexsorted) + partial columns
        self.keys = None
        self.columns = None
        self.rows_seen = 0

    @staticmethod
    def _array(values, rows):
        values = np.asarray(values)
        if values.shape == ():
            values = np.full(rows, values)
        return values

    def _sum_dtype(self, column, values):
        dtype = self._sum_dtypes.get(column)
        if dtype is None:
            dtype = np.sum(np.zeros(1, dtype=values.dtype)).dtype
            self._sum_dtypes[column] = dtype
        return dtype

    def _reduce(self, key_arrays, value_arrays, rows):
        """One sorted-partial table for a batch: ``(group_keys, columns)``."""
        if self.group_specs:
            order = np.lexsort(key_arrays[::-1])
            sorted_keys = [a[order] for a in key_arrays]
            boundary = np.zeros(rows, dtype=bool)
            boundary[0] = True
            for keys in sorted_keys:
                boundary[1:] |= keys[1:] != keys[:-1]
            starts = np.nonzero(boundary)[0]
            group_keys = [a[starts] for a in sorted_keys]
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
            if op == "sum":
                values = values.astype(self._sum_dtype(column, values), copy=False)
            columns[column] = self._COMBINE[op].reduceat(values, starts)
        return group_keys, columns

    def update(self, batch):
        rows = len(batch)
        if rows == 0:
            return
        self.rows_seen += rows
        key_arrays = [
            self._array(fn(batch), rows) for _name, fn in self.group_specs
        ]
        value_arrays = {}
        for column, op, fn in self.partials:
            if op != "count" and column not in value_arrays:
                value_arrays[column] = self._array(fn(batch), rows)
        group_keys, columns = self._reduce(key_arrays, value_arrays, rows)
        self._merge_partials(group_keys, columns)

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
        merged_keys = [
            np.concatenate([a, b]) for a, b in zip(self.keys, group_keys)
        ]
        total = len(merged_keys[0])
        order = np.lexsort(merged_keys[::-1])
        sorted_keys = [a[order] for a in merged_keys]
        boundary = np.zeros(total, dtype=bool)
        boundary[0] = True
        for keys in sorted_keys:
            boundary[1:] |= keys[1:] != keys[:-1]
        starts = np.nonzero(boundary)[0]
        self.keys = [a[starts] for a in sorted_keys]
        for column, op, _fn in self.partials:
            merged = np.concatenate([self.columns[column], columns[column]])
            self.columns[column] = self._COMBINE[op].reduceat(
                merged[order], starts
            )

    def finalize(self, output_order):
        """The aggregation result table, groups in sorted-key order."""
        arrays = {}
        for index, (name, _fn) in enumerate(self.group_specs):
            if name is not None:
                arrays[name] = self.keys[index]
        for name, plan in self.finals.items():
            kind, first, second = plan
            if kind == "col":
                arrays[name] = self.columns[first]
            else:  # avg: the shipped (sum, count) pair, mean-dtype division
                sums = self.columns[first]
                counts = self.columns[second]
                if np.issubdtype(sums.dtype, np.floating):
                    arrays[name] = np.asarray(sums / counts, dtype=sums.dtype)
                else:
                    arrays[name] = sums / counts
        fields = [
            SchemaField(name, arrays[name].dtype.str) for name in output_order
        ]
        schema = Schema("aggregation", fields)
        return ObjectTable.from_columns(schema, arrays)


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
    """

    name = "aggregate"

    def __init__(self, child, group_specs, aggregate_specs, output_order):
        super().__init__((child,))
        self.group_specs = list(group_specs)
        self.aggregate_specs = list(aggregate_specs)
        self.output_order = list(output_order)

    def run(self):
        child = self.children[0]
        delivered = None
        accumulator = _GroupedAccumulator(self.group_specs, self.aggregate_specs)
        for batch in child.output:
            delivered = _merge_delivered(delivered, batch)
            accumulator.update(batch)
            if accumulator.keys:
                self.stats.note_buffered(len(accumulator.keys[0]))
        if accumulator.rows_seen == 0:
            return
        out = accumulator.finalize(self.output_order)
        out.delivered = delivered
        self._emit(out)

def _objids(batch):
    if "objid" not in batch.schema:
        raise ExecutionError(
            "set operations need the objid pointer column in both operands"
        )
    return np.asarray(batch["objid"], dtype=np.int64)


def _gather_streams(children, maxsize=16):
    """Drain several children concurrently into one merged Stream.

    The gather point of every n-ary streaming node (union, exchange):
    batches are forwarded the moment any child produces one.  A child
    failure propagates — the first error fails the merged stream
    immediately (fail-fast), so a consumer can never mistake a
    partially-drained fan-out for a complete result.

    Returns ``(merged, threads)``; iterate ``merged``, then join the
    threads (or cancel everything via :func:`_cancel_gather`).
    """
    merged = Stream(maxsize=maxsize)
    done = threading.Semaphore(0)

    def drain(child):
        try:
            for batch in child.output:
                if merged.cancelled():
                    child.output.cancel()
                    return
                merged.push(batch)
        except Exception as exc:
            merged.fail(exc)
        finally:
            done.release()

    threads = [
        threading.Thread(target=drain, args=(c,), daemon=True) for c in children
    ]
    for t in threads:
        t.start()

    def close_when_drained():
        for _ in children:
            done.acquire()
        merged.close()

    closer = threading.Thread(target=close_when_drained, daemon=True)
    closer.start()
    return merged, threads


def _cancel_gather(children, merged):
    for child in children:
        child.output.cancel()
    merged.cancel()


class UnionNode(QETNode):
    """Bag union with pointer dedup: streams both children concurrently.

    The first occurrence of each objid wins; later duplicates are
    dropped.  No pipeline breaking — rows flow as soon as either child
    produces them.
    """

    name = "union"

    def __init__(self, left, right):
        super().__init__((left, right))

    def run(self):
        seen = set()
        merged, threads = _gather_streams(self.children)
        try:
            for batch in merged:
                ids = _objids(batch)
                fresh = np.fromiter(
                    (i not in seen for i in ids), count=ids.shape[0], dtype=bool
                )
                seen.update(ids[fresh].tolist())
                if fresh.any():
                    if not self._emit(batch.select(fresh)):
                        _cancel_gather(self.children, merged)
                        return
        except Exception:
            _cancel_gather(self.children, merged)
            raise
        for t in threads:
            t.join()


class _HashedRightNode(QETNode):
    """Shared base for intersect/difference: drains the right child into a
    hash set of pointers first, then streams the left child through it —
    "at least one of the child nodes must be complete"."""

    keep_if_present = True

    def __init__(self, left, right):
        super().__init__((left, right))

    def run(self):
        left, right = self.children
        right_ids = set()
        for batch in right.output:
            right_ids.update(_objids(batch).tolist())
        for batch in left.output:
            ids = _objids(batch)
            present = np.fromiter(
                (i in right_ids for i in ids), count=ids.shape[0], dtype=bool
            )
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
    """

    name = "exchange"

    def __init__(self, children):
        super().__init__(tuple(children))

    def run(self):
        if not self.children:
            return
        merged, threads = _gather_streams(self.children)
        try:
            for batch in merged:
                if not self._emit(batch):
                    _cancel_gather(self.children, merged)
                    return
        except Exception:
            _cancel_gather(self.children, merged)
            raise
        for t in threads:
            t.join()


class _MergeKey:
    """One ORDER BY key value with its direction; defines ``<`` so tuples
    of keys compare lexicographically, honoring per-key DESC."""

    __slots__ = ("value", "descending")

    def __init__(self, value, descending):
        self.value = value
        self.descending = descending

    def __lt__(self, other):
        if self.descending:
            return other.value < self.value
        return self.value < other.value

    def __eq__(self, other):
        return self.value == other.value


class MergeSortNode(QETNode):
    """Ordered k-way merge of already-sorted child streams.

    The distributed ORDER BY strategy: each shard sorts (and LIMIT-trims)
    its own rows, and the coordinator merges the sorted streams without
    re-sorting everything.  The merge is *batch-wise and vectorized*:
    each round computes the smallest last-buffered key across children —
    every buffered row at or below it can never be preceded by a future
    row — and emits those rows in one stably-merged table.  Rows flow as
    soon as the bound allows, so a downstream LIMIT cancels the merge
    (and, transitively, the shard scans) early.  Tie order is
    deterministic: within each emitted round, equal keys order by child
    index then shard-local stable order (for single-batch-per-shard
    producers like SortNode this is exactly lower-shard-first overall).
    """

    name = "merge_sort"

    def __init__(self, children, key_fns, descending_flags, batch_rows=4096):
        super().__init__(tuple(children))
        self.key_fns = list(key_fns)
        self.descending_flags = list(descending_flags)
        self.batch_rows = int(batch_rows)
        self._schema = None

    def _keys_for(self, batch):
        arrays = []
        for fn in self.key_fns:
            array = np.asarray(fn(batch))
            if array.shape == ():
                array = np.full(len(batch), array)
            arrays.append(array)
        return arrays

    def _advance(self, iterator):
        """Next non-empty batch of one child as ``(data, key_arrays)``."""
        for batch in iterator:
            if len(batch) == 0:
                continue
            if self._schema is None:
                self._schema = batch.schema
            return batch.data, self._keys_for(batch)
        return None

    def _bound_key(self, keys, index):
        return tuple(
            _MergeKey(array[index], descending)
            for array, descending in zip(keys, self.descending_flags)
        )

    def _emittable_rows(self, keys, bound):
        """How many leading rows sort at or before ``bound``.

        Lexicographic <= computed per key, fully vectorized; because the
        buffer is sorted by the same ordering, the mask is a prefix and
        its popcount is the prefix length.
        """
        length = len(keys[0])
        lt = np.zeros(length, dtype=bool)
        eq = np.ones(length, dtype=bool)
        for array, bound_key, descending in zip(
            keys, bound, self.descending_flags
        ):
            value = bound_key.value
            key_lt = (array > value) if descending else (array < value)
            lt |= eq & key_lt
            eq &= array == value
        return int(np.count_nonzero(lt | eq))

    def _emit_round(self, pieces, piece_keys):
        """Stably merge this round's per-child prefixes and emit them.

        Pieces arrive in ascending child order with within-child order
        intact, so a sequence of stable key sorts (least-significant
        first) yields exactly the documented tie behavior: shard index,
        then shard-local stable order.  Large rounds are emitted in
        ``batch_rows`` chunks to keep downstream backpressure fine-grained.
        """
        data = np.concatenate(pieces)
        order = np.arange(len(data))
        n_keys = len(self.key_fns)
        for key_index in range(n_keys - 1, -1, -1):
            keys = np.concatenate([pk[key_index] for pk in piece_keys])
            order = order[
                SortNode._stable_order(
                    keys[order], self.descending_flags[key_index]
                )
            ]
        table = ObjectTable(self._schema, data[order])
        for piece in table.iter_chunks(self.batch_rows):
            if not self._emit(piece):
                return False
        return True

    def run(self):
        cursors = []  # [iterator, data, key_arrays] per still-active child
        for child in self.children:
            iterator = iter(child.output)
            head = self._advance(iterator)
            if head is not None:
                cursors.append([iterator, head[0], head[1]])

        while cursors:
            bound = min(
                self._bound_key(keys, len(data) - 1)
                for _it, data, keys in cursors
            )
            pieces = []
            piece_keys = []
            for cursor in cursors:
                _iterator, data, keys = cursor
                count = self._emittable_rows(keys, bound)
                if count:
                    pieces.append(data[:count])
                    piece_keys.append([k[:count] for k in keys])
                    cursor[1] = data[count:]
                    cursor[2] = [k[count:] for k in keys]

            refreshed = []
            for cursor in cursors:
                if len(cursor[1]) == 0:
                    head = self._advance(cursor[0])
                    if head is None:
                        continue
                    cursor[1], cursor[2] = head
                refreshed.append(cursor)
            cursors = refreshed

            if pieces and not self._emit_round(pieces, piece_keys):
                for child in self.children:
                    child.output.cancel()
                return
