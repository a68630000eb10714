"""Claim D1 — spatial partitioning enables parallel, scalable I/O.

Paper: *"Splitting the data among multiple servers enables parallel,
scalable I/O and applies parallel processing to the data"* and *"As new
servers are added, the data will repartition."*

Measured: all-sky query time vs server count on the simulated-I/O model
(should scale ~linearly), locality of small queries (few servers
touched), and the cost of scale-out repartitioning.
"""

import numpy as np
import pytest

from conftest import print_table
from repro.session import Archive
from repro.storage.cluster import DistributedArchive


def fan_out(session, query):
    """Run ``query``; returns its rows and the job's fan-out report."""
    job = session.submit(query)
    result = job.cursor.to_table()
    return result, job.reports[0]


@pytest.mark.slow
def test_bench_parallel_scaling(benchmark, bench_photo):
    query = "SELECT * FROM photo WHERE LATBAND(-90, 90)"  # touches every server
    rows = []
    times = {}
    last_archive = DistributedArchive.from_table(bench_photo, 5, 16)
    with Archive.connect(archive=last_archive) as session:
        benchmark.pedantic(
            session.query_table, args=(query,), rounds=2, iterations=1
        )
    for n_servers in (1, 2, 4, 8, 16):
        archive = DistributedArchive.from_table(bench_photo, 5, n_servers)
        with Archive.connect(archive=archive) as session:
            result, report = fan_out(session, query)
        assert len(result) == len(bench_photo)
        times[n_servers] = report.simulated_seconds
        rows.append(
            (
                n_servers,
                report.servers_touched,
                f"{report.simulated_seconds * 1e3:.2f} ms",
                f"{report.parallel_speedup():.1f}x",
            )
        )
    print_table(
        "Claim D1: all-sky query vs server count (simulated I/O)",
        ("servers", "touched", "sim time", "speedup vs 1 server"),
        rows,
    )
    # Near-linear scaling: 16 servers at least 8x faster than one.
    assert times[1] / times[16] > 8.0


def test_bench_query_locality(benchmark, bench_photo):
    archive = DistributedArchive.from_table(bench_photo, 5, 16)
    query = "SELECT * FROM photo WHERE CIRCLE(185, 30, {})"
    rows = []
    with Archive.connect(archive=archive) as session:
        benchmark(session.query_table, query.format(2.0))
        for radius in (0.5, 2.0, 10.0, 45.0):
            _result, report = fan_out(session, query.format(radius))
            rows.append((f"{radius:.1f} deg", report.servers_touched, 16))
    print_table(
        "Claim D1: servers touched vs query radius",
        ("cone radius", "servers touched", "servers total"),
        rows,
    )
    # Small queries stay local; wide queries spread.
    assert rows[0][1] <= 3
    assert rows[-1][1] >= rows[0][1]


@pytest.mark.slow
def test_bench_scale_out_movement(benchmark, bench_photo):
    def scale_out():
        archive = DistributedArchive.from_table(bench_photo, 5, 8)
        moved = archive.add_servers(2)
        return archive, moved

    archive, moved = benchmark.pedantic(scale_out, rounds=3, iterations=1)
    fraction = moved / len(bench_photo)
    loads = archive.server_loads()
    imbalance = max(loads.values()) / (sum(loads.values()) / len(loads))
    print(f"\nadding 2 servers to 8 moved {fraction:.1%} of objects; "
          f"post-rebalance imbalance {imbalance:.2f}x")
    assert archive.total_objects() == len(bench_photo)
    # Contiguous-range repartitioning moves a bounded share, and the
    # result stays balanced.
    assert imbalance < 1.5
