"""Tests for repro.machines.scan."""

import numpy as np
import pytest

from repro.catalog.schema import PHOTO_SCHEMA
from repro.catalog.table import ObjectTable
from repro.machines.scan import ScanMachine, ScanQuery
from repro.storage.containers import ContainerStore


class TestSweepCorrectness:
    def test_results_match_brute_force(self, photo, photo_store):
        machine = ScanMachine(photo_store)
        query = ScanQuery("bright", lambda t: t["mag_r"] < 16.5)
        machine.run([query])
        result = query.result(PHOTO_SCHEMA)
        expected = set(
            np.asarray(photo["objid"])[np.asarray(photo["mag_r"]) < 16.5].tolist()
        )
        assert set(np.asarray(result["objid"]).tolist()) == expected
        assert query.rows_matched == len(expected)

    def test_query_sees_every_container_once(self, photo_store):
        machine = ScanMachine(photo_store)
        query = ScanQuery("all", lambda t: np.ones(len(t), dtype=bool))
        machine.run([query])
        assert query.containers_seen == len(photo_store)
        assert query.rows_matched == photo_store.total_objects()

    def test_empty_store(self):
        store = ContainerStore(PHOTO_SCHEMA, 5)
        machine = ScanMachine(store)
        query = ScanQuery("noop", lambda t: np.ones(len(t), dtype=bool))
        report = machine.run([query])
        assert report.queries_completed == 1
        assert query.completed_at is not None


class TestInteractiveScheduling:
    def test_immediate_admission(self, photo_store):
        machine = ScanMachine(photo_store)
        query = ScanQuery("q", lambda t: t["mag_r"] < 15, arrival_time=0.0)
        machine.run([query])
        assert query.activated_at == 0.0

    def test_completes_within_one_scan_time(self, photo_store):
        # "the query completes within the scan time" — from its arrival.
        machine = ScanMachine(photo_store)
        full_scan = machine.full_scan_seconds()
        query = ScanQuery("q", lambda t: t["mag_r"] < 15, arrival_time=0.0)
        machine.run([query])
        assert query.latency() <= full_scan * (1.0 + 1e-9)

    @staticmethod
    def _max_step(machine, store):
        itemsize = store.snapshot.arena.itemsize
        return max(
            machine.cluster.scan_seconds(rows * itemsize)
            for rows in store.container_sizes().values()
        )

    def test_midsweep_arrival_wraps_around(self, photo, photo_store):
        machine = ScanMachine(photo_store)
        full_scan = machine.full_scan_seconds()
        early = ScanQuery("early", lambda t: t["mag_r"] < 16, arrival_time=0.0)
        late = ScanQuery(
            "late", lambda t: t["objtype"] == 3, arrival_time=full_scan * 0.5
        )
        machine.run([early, late])
        # The late query still sees every object exactly once.
        expected = int((np.asarray(photo["objtype"]) == 3).sum())
        assert late.rows_matched == expected
        # Admission granularity is one container step.
        assert late.latency() <= full_scan + self._max_step(machine, photo_store)

    def test_concurrent_queries_share_the_sweep(self, photo_store):
        machine = ScanMachine(photo_store)
        queries = [
            ScanQuery(f"q{k}", lambda t: t["mag_r"] < 16, arrival_time=0.0)
            for k in range(4)
        ]
        report = machine.run(queries)
        # One physical sweep served all four queries.
        assert report.bytes_swept == photo_store.total_bytes()
        assert report.sharing_factor() == pytest.approx(4.0)

    def test_sequential_queries_cost_two_sweeps(self, photo_store):
        machine = ScanMachine(photo_store)
        full_scan = machine.full_scan_seconds()
        first = ScanQuery("first", lambda t: t["mag_r"] < 16, arrival_time=0.0)
        second = ScanQuery(
            "second", lambda t: t["mag_r"] < 16, arrival_time=full_scan * 2
        )
        report = machine.run([first, second])
        assert report.bytes_swept == pytest.approx(2 * photo_store.total_bytes())

    def test_max_cycles_bound(self, photo_store):
        machine = ScanMachine(photo_store)
        never_arriving = ScanQuery(
            "future", lambda t: t["mag_r"] < 15, arrival_time=0.0
        )
        report = machine.run([never_arriving], max_cycles=1)
        assert report.queries_completed == 1


class TestSimulatedTime:
    def test_full_scan_time_matches_cluster_model(self, photo_store):
        machine = ScanMachine(photo_store)
        expected = sum(
            machine.cluster.scan_seconds(photo_store.rows([htm_id])[0].nbytes())
            for htm_id in photo_store.occupied_ids()
        )
        assert machine.full_scan_seconds() == pytest.approx(expected)

    def test_clock_advances(self, photo_store):
        machine = ScanMachine(photo_store)
        query = ScanQuery("q", lambda t: t["mag_r"] < 15)
        report = machine.run([query])
        assert report.simulated_seconds > 0
        assert machine.clock == report.simulated_seconds
