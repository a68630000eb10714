"""Claim Q1 — the paper's "Typical Queries", end to end.

The three prototype queries of the paper's Typical Queries section:

1. finding charts around a position (cone + predicate + chart),
2. "quasars brighter than r=22 with a faint blue galaxy within 5 arcsec",
3. the gravitational-lens color-pair search,

each through the public API, with indexed vs full-scan work compared.
"""

import time

import numpy as np
import pytest

from conftest import container_split, print_table
from repro.geometry.shapes import circle_region
from repro.science.charts import make_finding_chart
from repro.science.lenses import find_lens_candidates
from repro.science.neighbors import quasars_with_faint_blue_neighbors


def test_bench_finding_chart(benchmark, bench_photo, bench_session):
    # A cone query through a session feeds the chart service.
    target_ra = float(bench_photo["ra"][0])
    target_dec = float(bench_photo["dec"][0])

    def serve_chart():
        result = bench_session.query_table(
            f"SELECT * FROM photo WHERE "
            f"CIRCLE({target_ra:.6f}, {target_dec:.6f}, 0.5) AND mag_r < 22.5"
        )
        return make_finding_chart(result, target_ra, target_dec,
                                  radius_arcmin=30.0)

    chart = benchmark(serve_chart)
    assert chart is not None and chart.object_count() >= 1
    print(f"\nfinding chart served in {benchmark.stats['mean'] * 1e3:.1f} ms "
          f"({chart.object_count()} objects) — 'answers within seconds'")
    assert benchmark.stats["mean"] < 5.0


def test_bench_quasar_neighbor_query(benchmark, bench_simulator, bench_photo):
    start = time.perf_counter()
    quasar_rows, galaxy_rows, _sep = benchmark.pedantic(
        quasars_with_faint_blue_neighbors, args=(bench_photo,),
        rounds=1, iterations=1,
    )
    seconds = time.perf_counter() - start

    found = {
        (int(bench_photo["objid"][q]), int(bench_photo["objid"][g]))
        for q, g in zip(quasar_rows, galaxy_rows)
    }
    truth = set(bench_simulator.ground_truth.quasar_neighbor_objids)
    print(f"\nnon-local quasar query: {len(found)} pairs in {seconds:.2f} s; "
          f"ground truth recovered {len(truth & found)}/{len(truth)}")
    assert truth <= found
    assert seconds < 60.0


@pytest.mark.slow
def test_bench_lens_query(benchmark, bench_simulator, bench_photo):
    start = time.perf_counter()

    def run():
        return find_lens_candidates(
            bench_photo, color_tolerance=0.05, min_magnitude_difference=0.1
        )

    candidates, report = benchmark.pedantic(run, rounds=1, iterations=1)
    seconds = time.perf_counter() - start
    truth = {
        (min(a, b), max(a, b))
        for a, b in bench_simulator.ground_truth.lens_pair_objids
    }
    found = {(c.objid_a, c.objid_b) for c in candidates}
    print(f"\nlens query: {len(candidates)} candidates in {seconds:.2f} s "
          f"({report.comparison_savings():,.0f}x comparison savings); "
          f"recovered {len(truth & found)}/{len(truth)}")
    assert truth <= found


def test_bench_indexed_vs_scan(
    benchmark, bench_photo, bench_photo_store, bench_session
):
    # "complex queries ... answers within seconds, and within minutes if
    # the query requires a complete search": indexed cone vs full sweep.
    # The same rows two ways: CIRCLE lets the cover prune containers;
    # DIST_ARCMIN is an attribute predicate, so every container is swept.
    region = circle_region(120.0, -20.0, 2.0)

    indexed_result = benchmark(
        bench_session.query_table, "SELECT * FROM photo WHERE CIRCLE(120, -20, 2)"
    )
    indexed_seconds = benchmark.stats["mean"]

    start = time.perf_counter()
    scan_result = bench_session.query_table(
        "SELECT * FROM photo WHERE DIST_ARCMIN(120, -20) <= 120"
    )
    scan_seconds = time.perf_counter() - start

    assert len(indexed_result) == len(scan_result)
    split = container_split(bench_photo_store, region)
    indexed_objects = split.wholesale + split.point_tested
    rows = [
        ("indexed", f"{indexed_seconds * 1e3:.1f} ms",
         indexed_objects, f"{split.nbytes / 1e6:.2f} MB"),
        ("full scan", f"{scan_seconds * 1e3:.1f} ms",
         len(bench_photo), f"{bench_photo_store.total_bytes() / 1e6:.1f} MB"),
    ]
    print_table(
        "Claim Q1: indexed cone search vs complete search",
        ("path", "wall", "objects scanned", "bytes"),
        rows,
    )
    assert indexed_objects < 0.05 * len(bench_photo)
