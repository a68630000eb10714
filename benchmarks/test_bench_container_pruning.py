"""Claim I1 — the container index accepts/rejects whole containers.

Paper: *"They define the base of an index tree that tells us whether
containers are fully inside, outside or bisected by our query.  Only the
bisected container category is searched ... A prediction of the output
data volume and search time can be computed from the intersection
volume."*

Measured: per-query container classification fractions at several query
radii, the objects-scanned savings vs a full sweep, and the density-map
prediction against the true result count.  Queries run through a
session; the classification comes from the cover (``container_split``).
"""

import numpy as np
import pytest

from conftest import container_split, print_table
from repro.geometry.shapes import circle_region
from repro.session import Archive


def cone_query(radius):
    return f"SELECT * FROM photo WHERE CIRCLE(185, 30, {radius})"


def test_bench_container_classification(
    benchmark, bench_photo, bench_photo_store, bench_session
):
    benchmark(bench_session.query_table, cone_query(2.0))
    rows = []
    for radius in (0.5, 2.0, 8.0, 30.0):
        region = circle_region(185.0, 30.0, radius)
        cursor = bench_session.execute(cone_query(radius))
        result = cursor.to_table()
        split = container_split(bench_photo_store, region)
        truth = int(region.contains(bench_photo.positions_xyz()).sum())
        assert len(result) == truth  # exactness regardless of pruning
        # The session read the pages holding the accepted and bisected
        # trixels, no more.
        report = cursor.io_report()
        assert report["containers_read"] + report["containers_from_pool"] == len(
            split.pages
        )
        scanned = split.wholesale + split.point_tested
        scanned_fraction = scanned / max(len(bench_photo), 1)
        rows.append(
            (
                f"{radius:.1f} deg",
                split.accepted,
                split.bisected,
                split.rejected,
                f"{scanned_fraction:.2%}",
                truth,
            )
        )
    print_table(
        "Claim I1: container classification per cone radius "
        f"(of {len(bench_photo_store)} occupied containers)",
        ("radius", "accepted", "bisected", "rejected", "objects scanned", "rows out"),
        rows,
    )
    # Small queries must reject almost everything.
    assert float(rows[0][4].rstrip("%")) < 2.0


def test_bench_pruning_savings(
    benchmark, bench_photo, bench_photo_store, bench_session
):
    region = circle_region(185.0, 30.0, 3.0)

    result = benchmark(bench_session.query_table, cone_query(3.0))
    assert len(result) == int(region.contains(bench_photo.positions_xyz()).sum())

    touched = container_split(bench_photo_store, region).nbytes
    full_sweep = bench_photo_store.total_bytes()
    savings = full_sweep / max(touched, 1)
    print(f"\nindexed query touches {touched / 1e6:.2f} MB vs "
          f"full sweep {full_sweep / 1e6:.1f} MB "
          f"({savings:.0f}x less I/O)")
    assert savings > 20.0


def test_bench_volume_prediction(benchmark, bench_photo, bench_density):
    # "A prediction of the output data volume ... can be computed from
    # the intersection volume."
    benchmark.pedantic(
        bench_density.estimate, args=(circle_region(185.0, 30.0, 3.0),),
        rounds=2, iterations=1,
    )
    rows = []
    for radius in (1.0, 3.0, 10.0):
        region = circle_region(185.0, 30.0, radius)
        estimate = bench_density.estimate(region)
        truth = int(region.contains(bench_photo.positions_xyz()).sum())
        rows.append(
            (
                f"{radius:.0f} deg",
                estimate.objects_in_accepted,
                f"{estimate.predicted_result_count:.0f}",
                truth,
                estimate.objects_scanned,
            )
        )
        # The prediction brackets and approximates the truth.
        assert estimate.objects_in_accepted <= truth <= estimate.objects_scanned
        if truth > 50:
            assert estimate.predicted_result_count == pytest.approx(truth, rel=0.4)
    print_table(
        "Claim I1: predicted vs actual result volume",
        ("radius", "floor (accepted)", "predicted", "actual", "ceiling (scanned)"),
        rows,
    )


def test_bench_depth_ablation(benchmark, bench_photo):
    # DESIGN.md ablation: container depth trades cover cost against
    # pruning precision.
    from repro.storage.containers import ContainerStore

    region = circle_region(185.0, 30.0, 3.0)
    benchmark.pedantic(
        ContainerStore.from_table, args=(bench_photo, 5), rounds=2, iterations=1
    )
    rows = []
    truth = int(region.contains(bench_photo.positions_xyz()).sum())
    for depth in (3, 5, 7):
        store = ContainerStore.from_table(bench_photo, depth)
        with Archive.connect(stores={"photo": store}) as session:
            assert len(session.query_table(cone_query(3.0))) == truth
        split = container_split(store, region)
        rows.append((depth, len(store), split.point_tested, split.wholesale))
    print_table(
        "Ablation: container depth vs fine-filter work",
        ("depth", "containers", "point-tested objects", "wholesale objects"),
        rows,
    )
    # Deeper containers localize the query: fewer point tests needed.
    point_tests = [r[2] for r in rows]
    assert point_tests[-1] <= point_tests[0]
