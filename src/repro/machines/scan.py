"""The scan machine: a continuously sweeping data pump.

*"Our simplest approach is to run a scan machine that continuously scans
the dataset evaluating user-supplied predicates on each object
[Acharya95]. ... The scan machine will be interactively scheduled: when an
astronomer has a query, it is added to the query mix immediately.  All
data that qualifies is sent back to the astronomer, and the query
completes within the scan time."*

:class:`ScanMachine` is the *simulated-time* face of the shared sweep: it
drives a :class:`~repro.machines.sweep.SweepScanner` one page per step
(manual mode), with one clock charge per container — a page's bytes
over the cluster's aggregate rate — and evaluating every active query's
predicate per trixel — the batching that lets N concurrent queries
share one physical read.  A query joining mid-sweep is served the
remaining pages first and finishes after wrap-around, within one full
scan time of its arrival.

The *live* face of the same machinery is
:meth:`~repro.storage.containers.ContainerStore.sweeper`, which the
query engine's :class:`~repro.query.qet.ScanNode` subscribes to — so
these simulated-time tests pin the behavior of the real read path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.catalog.table import ObjectTable
from repro.machines.sweep import SweepScanner
from repro.storage.diskmodel import PAPER_CLUSTER

__all__ = ["ScanQuery", "SweepReport", "ScanMachine"]

#: A predicate maps an ObjectTable to a boolean row mask.
Predicate = Callable[[ObjectTable], np.ndarray]


@dataclass
class ScanQuery:
    """One registered predicate query.

    ``predicate`` maps an ObjectTable to a boolean mask.  ``arrival_time``
    is in simulated seconds since the machine started.
    """

    name: str
    predicate: Predicate
    arrival_time: float = 0.0
    # populated by the machine:
    activated_at: Optional[float] = None
    completed_at: Optional[float] = None
    rows_matched: int = 0
    #: pages the query's subscription passed
    containers_seen: int = 0
    _pieces: List[ObjectTable] = field(default_factory=list)

    def latency(self):
        """Simulated seconds from arrival to completion."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.arrival_time

    def result(self, schema):
        """Matched rows as one table."""
        if not self._pieces:
            return ObjectTable(schema)
        return ObjectTable.concat_all(self._pieces)


@dataclass
class SweepReport:
    """Accounting for a completed run of the scan machine."""

    simulated_seconds: float
    bytes_swept: int
    #: pages swept (one clock charge each)
    containers_swept: int
    queries_completed: int
    #: bytes that would have been read had each query scanned separately
    bytes_if_unshared: int

    def sharing_factor(self):
        """Physical-read amplification avoided by the shared scan."""
        if self.bytes_swept == 0:
            return 1.0
        return self.bytes_if_unshared / self.bytes_swept


class ScanMachine:
    """Sweeps a container store, serving all active queries per pass."""

    def __init__(self, store, cluster=PAPER_CLUSTER):
        self.store = store
        self.cluster = cluster
        self.clock = 0.0
        #: the sweep driven by the last ``run()``; a private instance
        #: (not the store's live ``sweeper()``) so a simulation never
        #: interleaves with real query traffic on the same store.
        self.scanner = None

    def _sink_for(self, query):
        """Per-query delivery: the predicate per trixel, the matches kept."""

        def sink(run):
            for _htm_id, rows, _from_pool in run.containers():
                table = ObjectTable(self.store.schema, rows)
                mask = np.asarray(query.predicate(table), dtype=bool)
                if mask.any():
                    query._pieces.append(table.select(mask))
                    query.rows_matched += int(mask.sum())

        return sink

    def run(self, queries, max_cycles=None):
        """Run until every query completes (or ``max_cycles`` sweeps).

        Queries may have staggered ``arrival_time``; a query only sees
        rows scanned at or after its arrival, and completes once it has
        seen every trixel exactly once (wrap-around semantics).  The
        clock charges each pumped page's bytes at the cluster's scan
        rate whether the bytes came off disk or out of the buffer pool —
        the simulated cost model prices the *pump*, keeping the legacy
        accounting (two sequential queries still cost two sweeps).

        Returns a :class:`SweepReport`; per-query results live on the
        :class:`ScanQuery` objects.
        """
        queries = list(queries)
        pending = sorted(queries, key=lambda q: q.arrival_time)
        scanner = SweepScanner(self.store, name="sim")
        self.scanner = scanner
        bytes_swept = 0
        containers_swept = 0
        completed = 0
        cycles = 0

        if not len(self.store):
            for query in pending:
                query.activated_at = query.arrival_time
                query.completed_at = query.arrival_time
            return SweepReport(0.0, 0, 0, len(pending), 0)

        active = {}  # SweepSubscription -> ScanQuery
        while (pending or active) and (max_cycles is None or cycles < max_cycles):
            # Admit arrivals: "added to the query mix immediately".
            while pending and pending[0].arrival_time <= self.clock:
                query = pending.pop(0)
                query.activated_at = self.clock
                active[scanner.attach(sink=self._sink_for(query))] = query
            if not active:
                # Idle until the next arrival.
                self.clock = pending[0].arrival_time
                continue

            step = scanner.step()  # stride 1: one clock charge per page
            self.clock += self.cluster.scan_seconds(step.nbytes)
            bytes_swept += step.nbytes
            containers_swept += len(step.pages)
            if step.wrapped:
                cycles += 1

            for subscription in [s for s in active if s.done]:
                query = active.pop(subscription)
                query.containers_seen = subscription.seen
                query.completed_at = self.clock
                completed += 1
            for subscription, query in active.items():
                query.containers_seen = subscription.seen

        total_store_bytes = self.store.total_bytes()
        return SweepReport(
            simulated_seconds=self.clock,
            bytes_swept=bytes_swept,
            containers_swept=containers_swept,
            queries_completed=completed,
            bytes_if_unshared=total_store_bytes * len(queries),
        )

    def full_scan_seconds(self):
        """Simulated time for one complete sweep of the store: one
        charge per page."""
        return sum(
            self.cluster.scan_seconds(nbytes) for _page, nbytes in self.store.snapshot.pages()
        )
