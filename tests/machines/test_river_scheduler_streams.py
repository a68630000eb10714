"""Tests for repro.machines.river: answers, failures and thread hygiene."""

import threading
import time

import numpy as np
import pytest

from repro.catalog.schema import ObjectType
from repro.machines.river import RiverGraph
from repro.query.errors import ExecutionError


def _river_threads():
    return [t for t in threading.enumerate() if t.name.startswith("river-")]


def _river_threads_after(seconds=5.0):
    """The ``river-*`` threads still alive once ``seconds`` have passed
    (returns as soon as there are none)."""
    deadline = time.monotonic() + seconds
    while _river_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    return _river_threads()


class TestRiver:
    def test_filter(self, photo):
        out, report = (
            RiverGraph()
            .source(photo)
            .filter(lambda t: t["mag_r"] < 17)
            .run()
        )
        expected = int((photo["mag_r"] < 17).sum())
        assert report.rows_out == expected
        assert len(out) == expected

    def test_filter_to_empty(self, photo):
        out, report = (
            RiverGraph().source(photo).filter(lambda t: t["mag_r"] < 0).run()
        )
        assert out is None
        assert report.rows_out == 0

    def test_transform(self, photo):
        out, _report = (
            RiverGraph()
            .source(photo)
            .transform(lambda t: t.project(["objid", "mag_r"]))
            .run()
        )
        assert out.schema.field_names() == ["objid", "mag_r"]
        assert len(out) == len(photo)

    def test_parallel_sort_is_globally_sorted(self, photo):
        for ways in (1, 2, 4):
            out, _report = (
                RiverGraph().source(photo).parallel_sort("mag_r", ways).run()
            )
            values = np.asarray(out["mag_r"])
            assert bool(np.all(np.diff(values) >= 0)), f"ways={ways}"
            assert len(out) == len(photo)

    def test_pipeline_composes(self, photo):
        out, report = (
            RiverGraph()
            .source(photo)
            .filter(lambda t: t["objtype"] == ObjectType.GALAXY.value)
            .transform(lambda t: t.project(["objid", "mag_r"]))
            .parallel_sort("mag_r", 3)
            .run()
        )
        assert bool(np.all(np.diff(np.asarray(out["mag_r"])) >= 0))
        assert report.rows_in == len(photo)
        assert report.rows_out == int((photo["objtype"] == 2).sum())

    def test_sink_callback(self, photo):
        seen = []
        (
            RiverGraph()
            .source(photo)
            .filter(lambda t: t["mag_r"] < 16)
            .run(sink=lambda batch: seen.append(len(batch)))
        )
        assert sum(seen) == int((photo["mag_r"] < 16).sum())

    def test_throughput_accounting(self, photo):
        _out, report = RiverGraph().source(photo).run()
        assert report.bytes_in == photo.nbytes()
        assert report.wall_seconds > 0
        assert report.wall_mb_per_s() > 0
        assert report.simulated_seconds > 0

    def test_requires_source(self):
        with pytest.raises(ValueError):
            RiverGraph().run()
        with pytest.raises(ValueError):
            RiverGraph().parallel_sort("mag_r", 2)

    def test_parallel_custom_worker(self, photo):
        # Partition by object class, count per class in workers.
        def key_fn(batch):
            return np.where(np.asarray(batch["objtype"]) == 2, 0, 1)

        out, _report = (
            RiverGraph()
            .source(photo)
            .parallel(key_fn, lambda t: t.project(["objid", "objtype"]), 2)
            .run()
        )
        assert len(out) == len(photo)

    def test_bad_partition_key_raises(self, photo):
        graph = (
            RiverGraph()
            .source(photo)
            .parallel(lambda b: np.full(len(b), 7), lambda t: t, 2)
        )
        with pytest.raises(ExecutionError) as info:
            graph.run()
        assert isinstance(info.value.__cause__, ValueError)
        assert _river_threads_after() == []


class TestFailure:
    """A failed river stops every node; none is left blocked on a stream."""

    def test_raising_sink_leaves_no_thread(self, photo):
        alive_in_sink = []

        def sink(batch):
            alive_in_sink.extend(t.name for t in _river_threads())
            raise RuntimeError("sink gave up")

        graph = RiverGraph(batch_rows=64).source(photo).transform(lambda t: t)
        with pytest.raises(RuntimeError, match="sink gave up"):
            graph.run(sink=sink)
        # ~100 source batches against a few queued: both nodes were
        # still running when the sink raised.
        assert {"river-source", "river-transform"} <= set(alive_in_sink)
        assert _river_threads_after() == []

    def test_raising_stage_fails_the_run(self, photo):
        boom = ValueError("third batch is bad")
        seen = []

        def explode(batch):
            seen.append(len(batch))
            if len(seen) == 3:
                raise boom
            return batch

        graph = (
            RiverGraph(batch_rows=64)
            .source(photo)
            .transform(explode)
            .filter(lambda t: t["mag_r"] < 30)
        )
        with pytest.raises(ExecutionError) as info:
            graph.run()
        assert info.value.__cause__ is boom
        assert _river_threads_after() == []

    def test_raising_lane_worker_fails_the_run(self, photo):
        def worker(table):
            raise KeyError("lane")

        graph = RiverGraph().source(photo).parallel(
            lambda b: np.zeros(len(b), dtype=np.int64), worker, 2
        )
        with pytest.raises(ExecutionError) as info:
            graph.run()
        assert isinstance(info.value.__cause__, KeyError)
