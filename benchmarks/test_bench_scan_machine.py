"""Claim S1 — scan-machine throughput arithmetic and behaviour.

Paper: *"one node is capable of reading data at 150 MBps ... If the data
is spread among the 20 nodes, they can scan the data at an aggregate rate
of 3 GBps.  This half-million dollar system could scan the complete (year
2004) SDSS catalog every 2 minutes."*

The cost-model rows regenerate that arithmetic; the behavioural test runs
the real scan machine and verifies the interactive-scheduling property
(any query completes within one scan time of its arrival) and the shared
sweep (N concurrent queries cost one physical pass).
"""

import numpy as np
import pytest

from conftest import print_table
from repro.machines.scan import ScanMachine, ScanQuery
from repro.storage.diskmodel import GB, PAPER_NODE, ClusterModel


def test_bench_scan_cost_model(benchmark):
    benchmark(ClusterModel(nodes=20, node=PAPER_NODE).scan_seconds, 400 * GB)
    rows = []
    for nodes in (1, 2, 4, 8, 16, 20):
        cluster = ClusterModel(nodes=nodes, node=PAPER_NODE)
        rate = cluster.aggregate_scan_rate_mb_per_s()
        catalog_seconds = cluster.scan_seconds(400 * GB)
        rows.append(
            (nodes, f"{rate:,.0f} MB/s", f"{catalog_seconds:,.0f} s",
             f"{catalog_seconds / 60:.1f} min")
        )
    print_table(
        "Claim S1: cluster scan rate vs node count (400 GB photometric catalog)",
        ("nodes", "aggregate rate", "scan time", "scan time (min)"),
        rows,
    )

    # The paper's three numbers.
    assert PAPER_NODE.scan_rate_mb_per_s() == pytest.approx(150.0)
    twenty = ClusterModel(nodes=20, node=PAPER_NODE)
    assert twenty.aggregate_scan_rate_mb_per_s() == pytest.approx(3000.0)
    minutes = twenty.scan_seconds(400 * GB) / 60.0
    print(f"\n20-node scan of the 400 GB catalog: {minutes:.1f} min "
          "(paper: 'every 2 minutes')")
    assert 1.5 <= minutes <= 3.0

    # Perfect linear scaling in the shared-nothing model.
    assert twenty.scan_seconds(400 * GB) * 20 == pytest.approx(
        ClusterModel(nodes=1, node=PAPER_NODE).scan_seconds(400 * GB)
    )


def test_bench_scan_machine_behaviour(benchmark, bench_photo_store):
    machine = ScanMachine(bench_photo_store)
    full_scan = machine.full_scan_seconds()

    def run_mixed_arrivals():
        queries = [
            ScanQuery("q0", lambda t: t["mag_r"] < 18, arrival_time=0.0),
            ScanQuery("q1", lambda t: t["objtype"] == 3,
                      arrival_time=full_scan * 0.3),
            ScanQuery("q2", lambda t: (t["mag_g"] - t["mag_r"]) > 0.8,
                      arrival_time=full_scan * 0.7),
        ]
        local = ScanMachine(bench_photo_store)
        report = local.run(queries)
        return queries, report

    (queries, report) = benchmark.pedantic(run_mixed_arrivals, rounds=3, iterations=1)

    rows = [
        (q.name, f"{q.arrival_time:.3f}", f"{q.latency():.3f}", q.rows_matched)
        for q in queries
    ]
    print_table(
        "Claim S1: interactive scheduling (simulated seconds)",
        ("query", "arrival", "latency", "rows"),
        rows,
    )
    print(f"one full sweep: {full_scan:.3f} s simulated at this catalog size")

    # "the query completes within the scan time" — from its arrival,
    # plus at most one container step of admission granularity.
    itemsize = bench_photo_store.snapshot.arena.itemsize
    max_step = max(
        machine.cluster.scan_seconds(rows * itemsize)
        for rows in bench_photo_store.container_sizes().values()
    )
    for query in queries:
        assert query.latency() <= full_scan + max_step
    assert report.queries_completed == 3


def test_bench_scan_sharing(benchmark, bench_photo_store):
    # N concurrent queries share one physical sweep.
    def shared_sweep():
        machine = ScanMachine(bench_photo_store)
        queries = [
            ScanQuery(f"q{k}", lambda t: t["mag_r"] < 20, arrival_time=0.0)
            for k in range(8)
        ]
        return machine.run(queries)

    report = benchmark.pedantic(shared_sweep, rounds=2, iterations=1)
    print(f"\n8 concurrent queries: {report.bytes_swept / 1e6:.0f} MB swept, "
          f"sharing factor {report.sharing_factor():.1f}x")
    assert report.bytes_swept == bench_photo_store.total_bytes()
    assert report.sharing_factor() == pytest.approx(8.0)
