"""Claim T1 — tag objects speed up popular-attribute searches >10x.

Paper: *"We plan to isolate the 10 most popular attributes ... These will
occupy much less space, thus can be searched more than 10 times faster,
if no other attributes are involved in the query."*

The byte ratio is structural (record sizes); the wall-clock ratio is
measured by running the same query through the engine with tag routing on
and off.
"""

import time

import numpy as np
import pytest

from conftest import print_table
from repro.catalog.schema import PHOTO_SCHEMA, TAG_SCHEMA
from repro.catalog.tags import tag_size_ratio
from repro.storage.diskmodel import PAPER_CLUSTER

QUERY = (
    "SELECT objid, mag_r FROM photo "
    "WHERE mag_r < 19 AND mag_g - mag_r > 0.6"
)


def test_bench_tag_byte_ratio(benchmark, bench_photo, bench_tags):
    ratio = benchmark(tag_size_ratio)
    rows = [
        ("full record", f"{PHOTO_SCHEMA.record_nbytes()} B",
         f"{bench_photo.nbytes() / 1e6:.1f} MB"),
        ("tag record", f"{TAG_SCHEMA.record_nbytes()} B",
         f"{bench_tags.nbytes() / 1e6:.1f} MB"),
        ("ratio", f"{ratio:.1f}x", f"{bench_photo.nbytes() / bench_tags.nbytes():.1f}x"),
    ]
    print_table("Claim T1: tag vertical partition", ("", "per record", "catalog"), rows)
    # "more than 10 times faster" requires > 10x fewer bytes to read.
    assert ratio > 10.0

    # On the paper's I/O-bound cluster, scan time is proportional to
    # bytes: a full-catalog sweep vs a tag sweep.
    full_seconds = PAPER_CLUSTER.scan_seconds(400e9)
    tag_seconds = PAPER_CLUSTER.scan_seconds(400e9 / ratio)
    print(f"simulated 20-node sweep: full {full_seconds:.0f} s vs "
          f"tags {tag_seconds:.0f} s")
    assert full_seconds / tag_seconds > 10.0


@pytest.mark.slow
def test_bench_tag_query_wall_clock(benchmark, bench_session):
    # Warm both paths once, then measure.
    tag_result = bench_session.query_table(QUERY, allow_tag_route=True)
    full_result = bench_session.query_table(QUERY, allow_tag_route=False)
    tag_ids = set(np.asarray(tag_result["objid"]).tolist())
    full_ids = set(np.asarray(full_result["objid"]).tolist())
    assert tag_ids == full_ids  # identical answers on both routes

    def run_tag():
        return bench_session.query_table(QUERY, allow_tag_route=True)

    def run_full():
        return bench_session.query_table(QUERY, allow_tag_route=False)

    start = time.perf_counter()
    for _ in range(3):
        run_full()
    full_seconds = (time.perf_counter() - start) / 3

    benchmark(run_tag)
    tag_seconds = benchmark.stats["mean"]

    speedup = full_seconds / tag_seconds
    print(f"\nsame query: tag route {tag_seconds * 1e3:.1f} ms vs "
          f"full route {full_seconds * 1e3:.1f} ms -> {speedup:.1f}x")
    # In-memory Python narrows the I/O gap; the tag route must still win
    # clearly.  (On the paper's disk-bound servers the byte ratio governs.)
    assert speedup > 1.5

    assert bench_session.explain(QUERY).find("scan")[0].detail["tag_route"]
