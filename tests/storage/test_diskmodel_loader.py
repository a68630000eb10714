"""Tests for repro.storage.diskmodel and .loader."""

import numpy as np
import pytest

from repro.catalog.schema import PHOTO_SCHEMA
from repro.storage.containers import ContainerStore
from repro.storage.diskmodel import (
    GB,
    PAPER_CLUSTER,
    PAPER_NODE,
    TB,
    ClusterModel,
    DiskModel,
    NodeModel,
)
from repro.storage.loader import ChunkLoader
from repro.storage.partition import Partitioner


class TestDiskModel:
    def test_read_time_components(self):
        disk = DiskModel(seek_ms=10.0, sequential_mb_per_s=100.0)
        # 1 seek + 100 MB at 100 MB/s = 0.01 + 1.0 s.
        assert disk.read_seconds(100_000_000, seeks=1) == pytest.approx(1.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskModel().read_seconds(-1)


class TestNodeModel:
    def test_paper_node_rate(self):
        # "one node is capable of reading data at 150 MBps"
        assert PAPER_NODE.scan_rate_mb_per_s() == pytest.approx(150.0)

    def test_rate_capped_by_controller(self):
        node = NodeModel(disks=100, max_node_mb_per_s=150.0)
        assert node.scan_rate_mb_per_s() == 150.0

    def test_rate_limited_by_few_disks(self):
        node = NodeModel(disks=2)  # 2 x 12.5 = 25 MB/s < cap
        assert node.scan_rate_mb_per_s() == pytest.approx(25.0)

    def test_scan_seconds(self):
        assert PAPER_NODE.scan_seconds(150_000_000) == pytest.approx(1.0)

    def test_cpu_bound_scan(self):
        node = NodeModel(max_node_mb_per_s=1000.0, disks=100, cpu_mb_per_s=10.0)
        # CPU (10 MB/s) slower than disk: CPU dominates.
        assert node.scan_seconds(100_000_000) == pytest.approx(10.0)


class TestClusterModel:
    def test_paper_aggregate_rate(self):
        # "they can scan the data at an aggregate rate of 3 GBps"
        assert PAPER_CLUSTER.aggregate_scan_rate_mb_per_s() == pytest.approx(3000.0)

    def test_two_minute_full_catalog_scan(self):
        # "This half-million dollar system could scan the complete (year
        # 2004) SDSS catalog every 2 minutes": the 400 GB photometric
        # catalog takes ~133 s; the full ~0.5 TB of catalog products stays
        # within ~3 minutes.
        seconds = PAPER_CLUSTER.scan_seconds(400 * GB)
        assert 100 <= seconds <= 180

    def test_scan_scales_with_nodes(self):
        single = ClusterModel(nodes=1).scan_seconds(1 * TB)
        twenty = ClusterModel(nodes=20).scan_seconds(1 * TB)
        assert single / twenty == pytest.approx(20.0)

    def test_skew_slows_scan(self):
        even = PAPER_CLUSTER.scan_seconds(1 * TB, skew=1.0)
        skewed = PAPER_CLUSTER.scan_seconds(1 * TB, skew=1.5)
        assert skewed == pytest.approx(1.5 * even)

    def test_skew_validated(self):
        with pytest.raises(ValueError):
            PAPER_CLUSTER.scan_seconds(1 * GB, skew=0.5)

    def test_shuffle_network_bound(self):
        # 100 MB/s NIC vs 150 MB/s disk: the network gates the shuffle.
        shuffle = PAPER_CLUSTER.shuffle_seconds(1 * TB, fraction_moved=1.0)
        scan = PAPER_CLUSTER.scan_seconds(1 * TB)
        assert shuffle > scan


class TestChunkLoader:
    def make_ra_chunks(self, photo, n_chunks=6):
        """Spatially coherent chunks, as nightly scans are."""
        ra = np.asarray(photo["ra"])
        edges = np.linspace(0.0, 360.0, n_chunks + 1)
        return [
            photo.select((ra >= lo) & (ra < hi))
            for lo, hi in zip(edges[:-1], edges[1:])
        ]

    def test_two_phase_touches_each_container_once(self, photo):
        store = ContainerStore(PHOTO_SCHEMA, 5)
        loader = ChunkLoader(store)
        chunks = self.make_ra_chunks(photo)
        for chunk in chunks:
            report = loader.load_chunk(chunk)
            ids = set(store.container_ids_for(chunk).tolist())
            # "touching each clustering unit at most once during a load"
            assert report.containers_touched == len(ids)

    def test_loaded_store_matches_bulk_store(self, photo, photo_store):
        store = ContainerStore(PHOTO_SCHEMA, 5)
        loader = ChunkLoader(store)
        loader.load_chunks(self.make_ra_chunks(photo))
        assert store.total_objects() == photo_store.total_objects()
        assert store.occupied_ids() == photo_store.occupied_ids()

    def test_savings_over_naive(self, photo):
        store = ContainerStore(PHOTO_SCHEMA, 5)
        loader = ChunkLoader(store)
        reports = loader.load_chunks(self.make_ra_chunks(photo))
        total_naive = sum(r.naive_touches for r in reports)
        total_touched = sum(r.containers_touched for r in reports)
        assert total_naive / total_touched > 1.2

    def test_databases_touched_with_partition_map(self, photo, photo_store):
        weights = photo_store.container_sizes()
        pmap = Partitioner(5).build(weights, 4)
        store = ContainerStore(PHOTO_SCHEMA, 5)
        loader = ChunkLoader(store, partition_map=pmap)
        report = loader.load_chunk(self.make_ra_chunks(photo, 8)[0])
        # A 45-degree RA slice should not need every server.
        assert 1 <= report.databases_touched <= 4

    def test_empty_chunk(self, photo):
        store = ContainerStore(PHOTO_SCHEMA, 5)
        loader = ChunkLoader(store)
        report = loader.load_chunk(photo.select(np.zeros(len(photo), dtype=bool)))
        assert report.objects_loaded == 0
        assert report.containers_touched == 0
        assert report.touch_savings() == 1.0

    def test_append_grows_containers(self, photo):
        store = ContainerStore(PHOTO_SCHEMA, 5)
        loader = ChunkLoader(store)
        half = len(photo) // 2
        first = photo.take(np.arange(half))
        second = photo.take(np.arange(half, len(photo)))
        report_a = loader.load_chunk(first)
        report_b = loader.load_chunk(second)
        assert store.total_objects() == len(photo)
        # Some containers already existed at the second load.
        assert report_b.containers_created < report_b.containers_touched or (
            report_b.containers_created == report_b.containers_touched
        )
        assert loader.total_objects_loaded() == len(photo)
