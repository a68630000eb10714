"""Tests for repro.machines.river and .streams."""

import threading

import numpy as np
import pytest

from repro.catalog.schema import ObjectType
from repro.machines.river import RiverGraph
from repro.machines.streams import BoundedStream


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
        with pytest.raises(Exception):
            graph.run()


class TestBoundedStream:
    def test_single_producer(self, photo):
        stream = BoundedStream()
        stream.register_producer()

        def produce():
            for chunk in photo.iter_chunks(512):
                stream.push(chunk)
            stream.close()

        thread = threading.Thread(target=produce)
        thread.start()
        total = sum(len(batch) for batch in stream)
        thread.join()
        assert total == len(photo)
        assert stream.stats.rows == len(photo)
        assert stream.stats.nbytes == photo.nbytes()

    def test_multi_producer_close_protocol(self, photo):
        stream = BoundedStream()
        stream.register_producer()
        stream.register_producer()
        half = len(photo) // 2

        def produce(part):
            stream.push(part)
            stream.close()

        parts = [photo.take(np.arange(half)), photo.take(np.arange(half, len(photo)))]
        threads = [threading.Thread(target=produce, args=(p,)) for p in parts]
        for t in threads:
            t.start()
        total = sum(len(batch) for batch in stream)
        for t in threads:
            t.join()
        assert total == len(photo)
