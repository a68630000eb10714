"""The river machine: dataflow graphs with partition parallelism.

*"We propose to let astronomers construct dataflow graphs where the nodes
consume one or more data streams, filter and combine the data, and then
produce one or more result streams. ... The simplest river systems are
sorting networks."*

:class:`RiverGraph` is a small builder for linear-with-fanout dataflows:
a source feeds stages (filter / transform / partitioned parallel stages /
sort) ending in a sink.  Parallel stages split the stream by a key into
``ways`` lanes, run a worker thread per lane, and merge lane outputs —
partition parallelism exactly as the paper sketches.  The built-in
``parallel_sort`` is a range-partitioned sample sort: the canonical
sorting network.

Nodes run one thread each (``river-source``, ``river-<stage>``) and
exchange batches over :class:`~repro.query.qet.Stream`, the query
engine's cancellable stream.  A stage stops when its downstream is
cancelled; a failing stage cancels its upstream and fails its
downstream, so :meth:`RiverGraph.run` raises an
:class:`~repro.query.errors.ExecutionError` whose ``__cause__`` is the
stage's exception.  ``run`` cancels every stream and joins every node
before it returns or raises — a failed river leaves no thread behind.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.catalog.table import ObjectTable
from repro.query.qet import Stream
from repro.storage.diskmodel import PAPER_CLUSTER

__all__ = ["RiverGraph", "RiverReport"]


@dataclass
class RiverReport:
    """Throughput accounting for one river run."""

    rows_in: int = 0
    rows_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    wall_seconds: float = 0.0
    simulated_seconds: float = 0.0

    def wall_mb_per_s(self):
        """Measured throughput of the real run."""
        if self.wall_seconds == 0:
            return 0.0
        return self.bytes_in / self.wall_seconds / 1e6


class _Stage:
    """One node of the dataflow; ``batches`` yields its output stream."""

    def __init__(self, name):
        self.name = name

    def batches(self, upstream):
        raise NotImplementedError


class _FilterStage(_Stage):
    def __init__(self, mask_fn):
        super().__init__("filter")
        self.mask_fn = mask_fn

    def batches(self, upstream):
        for batch in upstream:
            mask = np.asarray(self.mask_fn(batch), dtype=bool)
            selected = batch.select(mask)
            if len(selected):
                yield selected


class _TransformStage(_Stage):
    def __init__(self, fn):
        super().__init__("transform")
        self.fn = fn

    def batches(self, upstream):
        for batch in upstream:
            result = self.fn(batch)
            if result is not None and len(result):
                yield result


class _ParallelStage(_Stage):
    """Partition parallelism: split by key into lanes, one worker each.

    ``key_fn(batch) -> integer array`` assigns each row a lane in
    ``[0, ways)``; ``worker_fn(table) -> table`` processes a lane's entire
    input (it sees the lane as one table, enabling per-lane sorts).
    """

    def __init__(self, key_fn, worker_fn, ways):
        super().__init__("parallel")
        self.key_fn = key_fn
        self.worker_fn = worker_fn
        self.ways = int(ways)

    def batches(self, upstream):
        lanes = [[] for _ in range(self.ways)]
        for batch in upstream:
            keys = np.asarray(self.key_fn(batch), dtype=np.int64)
            if np.any((keys < 0) | (keys >= self.ways)):
                raise ValueError("partition key out of range")
            for lane_index in range(self.ways):
                part = batch.select(keys == lane_index)
                if len(part):
                    lanes[lane_index].append(part)

        def work(pieces):
            return self.worker_fn(ObjectTable.concat_all(pieces)) if pieces else None

        # A worker's exception surfaces here and fails the stage.
        with ThreadPoolExecutor(max_workers=self.ways) as pool:
            results = list(pool.map(work, lanes))

        # Lanes are emitted in lane order; with a range-partitioning key
        # and sorted workers this yields a globally sorted stream.
        for result in results:
            if result is not None and len(result):
                yield result


def _pump(table, batch_rows, downstream):
    """The source node: stream ``table`` in chunks until cancelled."""
    try:
        for chunk in table.iter_chunks(batch_rows):
            if not downstream.push(chunk):
                return
        downstream.close()
    except Exception as exc:
        downstream.fail(exc)


def _run_stage(stage, upstream, downstream):
    """Drive one stage between its streams.

    The stage stops when ``push`` returns False (everything downstream
    was cancelled); a failing stage fails its downstream, whose reader
    re-raises it as an :class:`~repro.query.errors.ExecutionError`.
    Either way the upstream is cancelled, so its producer stops too.
    """
    try:
        for batch in stage.batches(upstream):
            if not downstream.push(batch):
                return
        downstream.close()
    except Exception as exc:
        downstream.fail(exc)
    finally:
        upstream.cancel()


class RiverGraph:
    """Builder/runner for a linear dataflow with parallel stages."""

    def __init__(self, batch_rows=4096, cluster=PAPER_CLUSTER):
        self.batch_rows = int(batch_rows)
        self.cluster = cluster
        self._stages = []
        self._source_table = None

    def source(self, table):
        """Set the input table (streamed in ``batch_rows`` chunks)."""
        self._source_table = table
        return self

    def filter(self, mask_fn):
        """Append a filter node."""
        self._stages.append(_FilterStage(mask_fn))
        return self

    def transform(self, fn):
        """Append a transform node (``fn(table) -> table or None``)."""
        self._stages.append(_TransformStage(fn))
        return self

    def parallel(self, key_fn, worker_fn, ways):
        """Append a partition-parallel node."""
        self._stages.append(_ParallelStage(key_fn, worker_fn, ways))
        return self

    def parallel_sort(self, column, ways):
        """Append a range-partitioned sample sort on ``column``.

        Implements the classical sorting network: sample the key
        distribution from the source, cut it into ``ways`` quantile
        ranges, sort each range in its own worker, and emit ranges in
        order — the output stream is globally sorted.
        """
        if self._source_table is None:
            raise ValueError("parallel_sort needs the source set first")
        keys = np.asarray(self._source_table[column], dtype=np.float64)
        if keys.size:
            quantiles = np.quantile(keys, np.linspace(0, 1, ways + 1)[1:-1])
        else:
            quantiles = np.zeros(max(ways - 1, 0))

        def key_fn(batch, _cuts=quantiles):
            values = np.asarray(batch[column], dtype=np.float64)
            return np.searchsorted(_cuts, values, side="right")

        def worker_fn(table, _column=column):
            return table.sort_by(_column)

        self._stages.append(_ParallelStage(key_fn, worker_fn, ways))
        return self

    def run(self, sink=None):
        """Execute the graph; returns ``(ObjectTable or None, RiverReport)``.

        ``sink`` may be a callable invoked per output batch; output is
        also collected and returned (pass ``sink`` and ignore the return
        for pure streaming).
        """
        if self._source_table is None:
            raise ValueError("river has no source")
        report = RiverReport(
            rows_in=len(self._source_table),
            bytes_in=self._source_table.nbytes(),
        )
        streams = [Stream() for _ in range(len(self._stages) + 1)]
        threads = [
            threading.Thread(
                target=_pump,
                args=(self._source_table, self.batch_rows, streams[0]),
                name="river-source",
                daemon=True,
            )
        ]
        for stage, upstream, downstream in zip(self._stages, streams, streams[1:]):
            threads.append(
                threading.Thread(
                    target=_run_stage,
                    args=(stage, upstream, downstream),
                    name=f"river-{stage.name}",
                    daemon=True,
                )
            )

        started = time.perf_counter()
        for t in threads:
            t.start()

        collected = []
        try:
            for batch in streams[-1]:
                collected.append(batch)
                report.rows_out += len(batch)
                report.bytes_out += batch.nbytes()
                if sink is not None:
                    sink(batch)
        finally:
            # A finished river has nothing left to cancel; a failed one
            # (a stage's error, a sink's exception) unblocks every node.
            for stream in streams:
                stream.cancel()
            for t in threads:
                t.join()
        report.wall_seconds = time.perf_counter() - started
        report.simulated_seconds = self.cluster.scan_seconds(report.bytes_in)
        if collected:
            return ObjectTable.concat_all(collected), report
        return None, report
