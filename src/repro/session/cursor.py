"""The uniform result handle: one cursor for every backend and query class.

The one result surface — the engines hand back no results of their own.
A :class:`~repro.session.Job` holds its running tree and one generator
over the root's batches; this :class:`Cursor` is that generator's only
consumer.  Its :meth:`Cursor._pull` is the one drain — the batch
dispatcher appends what it returns to the cursor's buffer — so the
collection for the completion sink, the first-seen schema, the sink
itself and failure marking are each written once.  The cursor

* always knows its output :class:`~repro.catalog.schema.Schema` (empty
  results are well-formed empty tables),
* streams batches ASAP for interactive jobs (iterate it),
* paginates with :meth:`fetchmany`,
* materializes with :meth:`to_table`,
* cancels the whole execution tree with :meth:`cancel`, and
* exposes the progress counters (``rows``, ``time_to_first_row``,
  ``time_to_completion``) and per-node stats the paper's query agent
  reports to users.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.catalog.table import ObjectTable
from repro.query.errors import ExecutionError

__all__ = ["Cursor"]


class Cursor:
    """Streaming/paging view of one :class:`~repro.session.Job`'s output.

    Obtained from ``job.cursor`` (or directly from
    ``session.execute(...)``).  Reading blocks until the job is readable:
    immediately for interactive jobs, on batch-queue completion for
    batch jobs.  Iteration, :meth:`fetchmany` and :meth:`to_table` share
    one underlying stream position, so they compose (e.g. page the first
    100 rows, then drain the rest with ``to_table()``).
    """

    def __init__(self, job):
        self._job = job
        self._buffer = deque()
        self._seen_schema = None
        # The dispatcher and the reader of a cancelled batch job may
        # pull at once; a generator takes one caller at a time.
        self._pulling = threading.Lock()

    # ------------------------------------------------------------------
    # metadata and counters
    # ------------------------------------------------------------------

    @property
    def schema(self):
        """Output schema; statically derived, so it is known even for
        queries that produce no rows.  A remote query's is known once it
        has started (its server describes it), so a queued remote batch
        job has none yet, nor does one whose start failed."""
        static = self._job.static_schema
        if static is not None:
            return static
        return self._seen_schema

    @property
    def rows(self):
        """Rows produced so far (a live progress counter)."""
        return self._job.rows

    @property
    def time_to_first_row(self):
        return self._job.time_to_first_row

    @property
    def time_to_completion(self):
        return self._job.time_to_completion

    def node_stats(self):
        """Mapping of QET node -> :class:`~repro.query.qet.NodeStats`."""
        return self._job.node_stats()

    def has_ready_batch(self):
        """True when a batch can be served without blocking — buffered
        here, or already queued by the execution tree.  Lets a paced
        reader (the archive server's ``fetch_batch`` handler) forward
        whatever exists instead of stalling for a fuller page."""
        job = self._job
        return bool(self._buffer) or (
            job._started_at is not None and job._prepared.root.output.pending() > 0
        )

    def io_report(self):
        """Shared-scan I/O telemetry (see :meth:`Job.io_report`)."""
        return self._job.io_report()

    @property
    def trace_id(self):
        """Trace id of the owning job."""
        return self._job.trace_id

    def trace(self):
        """The owning job's merged span tree (see :meth:`Job.trace`)."""
        return self._job.trace()

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------

    def _pull(self):
        """Next batch from the execution tree, or ``None`` at the end:
        the one drain of a job's batches.

        Exhaustion runs the job's completion sink (cache fill or INTO
        materialization) and marks it DONE — or surfaces a sink failure
        (e.g. a MyDB quota error) to the reader.  An execution error
        marks the job FAILED before re-raising, and every later pull
        raises it again, so a failure never reads as an empty result.
        Callers must have started the job: a reader passes the
        readability gate (see :meth:`_next_batch`), the batch dispatcher
        started it itself.
        """
        job = self._job
        try:
            with self._pulling:
                batch = next(job._batches)
        except StopIteration:
            job._complete_drain()
            if job.error is not None:
                raise job.error
            return None
        except ExecutionError as exc:
            job._note_failed(exc)
            raise
        if self._seen_schema is None:
            self._seen_schema = batch.schema
        job._collect(batch)
        return batch

    def _next_batch(self):
        """One batch for the consumer, gated on job readability.

        The gate comes *before* the buffer check: a batch job's buffer
        fills from the dispatcher thread while the job runs, and reading
        it early would silently deliver a partial prefix.  Waiting for
        readability first (completion, for batch jobs) makes the buffer
        a stable, fully-populated source.
        """
        self._job._wait_readable()
        if self._buffer:
            return self._buffer.popleft()
        return self._pull()

    def __iter__(self):
        """Stream batches (ObjectTables) as the tree produces them."""
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            yield batch

    def fetchmany(self, n):
        """The next ``n`` rows as one table (fewer at the end).

        Returns a well-formed *empty* table once the stream is
        exhausted, so ``while len(page := cursor.fetchmany(k)):`` is a
        complete pagination loop.
        """
        n = int(n)
        if n < 0:
            raise ValueError("fetchmany needs a non-negative row count")
        return self._gather(n)

    def fetchall(self):
        """Alias of :meth:`to_table` (drain everything remaining)."""
        return self.to_table()

    def to_table(self):
        """Drain the remaining stream into one table.

        Empty results are empty tables of the cursor's schema — never
        ``None``.
        """
        return self._gather(None)

    def _gather(self, n):
        """The next ``n`` rows (all remaining when ``None``) as one table.
        On a failure part-way, what was gathered goes back to the front
        of the buffer before the error propagates: the next read gets it."""
        parts = []
        have = 0
        try:
            while n is None or have < n:
                batch = self._next_batch()
                if batch is None:
                    break
                if n is not None and len(batch) > n - have:
                    self._buffer.appendleft(batch.take(slice(n - have, None)))
                    batch = batch.take(slice(n - have))
                parts.append(batch)
                have += len(batch)
        except Exception:
            if parts:
                self._buffer.appendleft(ObjectTable.concat_all(parts))
            raise
        return self._combine(parts)

    def _combine(self, parts):
        if parts:
            return ObjectTable.concat_all(parts)
        schema = self.schema
        if schema is None:
            # Unknowable without data (pathological projection); the
            # documented rare fallback.
            return None
        return ObjectTable(schema)

    def cancel(self):
        """Cancel the owning job (stops every QET node thread)."""
        self._job.cancel()
