"""Claim L1 — two-phase loading touches each clustering unit once.

Paper: *"Loading data into the Science Archive could take a long time if
the data were not clustered properly.  Efficiency is important, since
about 20 GB will be arriving daily. ... Our load design minimizes disk
accesses, touching each clustering unit at most once during a load."*

Measured: container touches for spatially coherent nightly chunks vs the
naive per-object insertion count, the bytes one chunk's load copies into
a store and into one four times larger and the buffer-pool pages it
invalidates there, load throughput, and the simulated time to ingest a
20 GB day on 1999 hardware.
"""

import numpy as np
import pytest

from conftest import print_table
from repro.catalog.schema import PHOTO_SCHEMA
from repro.htm.mesh import lookup_ids_from_vectors
from repro.machines.sweep import SweepScanner
from repro.storage import containers
from repro.storage.containers import ContainerStore
from repro.storage.diskmodel import GB, PAPER_NODE
from repro.storage.loader import ChunkLoader


def nightly_chunks(photo, n_nights=8):
    ra = np.asarray(photo["ra"])
    edges = np.linspace(0.0, 360.0, n_nights + 1)
    return [
        photo.select((ra >= lo) & (ra < hi))
        for lo, hi in zip(edges[:-1], edges[1:])
    ]


def test_bench_load_touches(benchmark, bench_photo):
    first_chunk = nightly_chunks(bench_photo)[0]

    def load_one():
        ChunkLoader(ContainerStore(PHOTO_SCHEMA, 5)).load_chunk(first_chunk)

    benchmark.pedantic(load_one, rounds=2, iterations=1)
    store = ContainerStore(PHOTO_SCHEMA, 5)
    loader = ChunkLoader(store)
    rows = []
    for night, chunk in enumerate(nightly_chunks(bench_photo)):
        report = loader.load_chunk(chunk)
        # The invariant: one touch per distinct clustering unit.
        distinct = len(set(store.container_ids_for(chunk).tolist()))
        assert report.containers_touched == distinct
        rows.append(
            (
                night,
                report.objects_loaded,
                report.containers_touched,
                report.naive_touches,
                f"{report.touch_savings():.1f}x",
            )
        )
    print_table(
        "Claim L1: two-phase chunk loads (one touch per clustering unit)",
        ("night", "objects", "touches", "naive touches", "savings"),
        rows,
    )
    assert store.total_objects() == len(bench_photo)
    total_savings = sum(r[3] for r in rows) / sum(r[2] for r in rows)
    print(f"aggregate touch savings: {total_savings:.1f}x")
    assert total_savings > 2.0


def test_bench_load_cost_follows_the_chunk(benchmark, bench_photo):
    # A load copies the rows it lands among and the chunk into one new
    # run and shares the rest of the store, so one coherent chunk (the
    # rows of one depth-2 trixel) costs the same bytes in a store and in
    # one four times larger — within two sweep steps, the shortest run
    # a load leaves — where a whole-store rewrite would cost 4x.  The
    # shared runs keep their pages, so after a lap has filled the pool
    # the load invalidates only the pages of the rows it rewrote: as
    # many in either store, within one step's pages.
    coarse = lookup_ids_from_vectors(bench_photo.positions_xyz(), 2)
    values, counts = np.unique(coarse, return_counts=True)
    in_chunk = coarse == values[np.argmax(counts)]
    chunk = bench_photo.select(in_chunk)
    rest = np.flatnonzero(~in_chunk)
    sizes = {"1x": rest[::4], "4x": rest}

    def load_into(rows):
        store = ContainerStore.from_table(bench_photo.take(rows), 5)
        scanner = SweepScanner(store)  # one lap: every page resident
        scanner.attach(sink=lambda _run: True)
        while scanner.step(containers.STEP_PAGES) is not None:
            pass
        report = ChunkLoader(store).load_chunk(chunk)
        return store, report

    benchmark.pedantic(load_into, args=(sizes["4x"],), rounds=2, iterations=1)
    step = containers.STEP_PAGES * containers.PAGE_BYTES
    rows, copied, invalidated = [], [], []
    for label, picks in sizes.items():
        store, report = load_into(picks)
        copied.append(report.bytes_rewritten)
        invalidated.append(store.buffer_pool.stats.invalidations)
        rows.append(
            (
                label,
                len(picks),
                f"{(store.total_bytes() - chunk.nbytes()) / 1e6:.1f}",
                len(chunk),
                f"{report.bytes_rewritten / 1e6:.2f}",
                f"{store.total_bytes() / 1e6:.2f}",
                len(store.snapshot.runs),
                invalidated[-1],
                len(store.snapshot.pages()),
            )
        )
    print_table(
        "Claim L1: a load's cost follows the chunk, not the archive",
        (
            "store",
            "rows",
            "MB",
            "chunk rows",
            "MB rewritten",
            "MB whole store",
            "runs",
            "pages invalidated",
            "pages",
        ),
        rows,
    )
    assert abs(copied[1] - copied[0]) <= 2 * step
    assert copied[1] < store.total_bytes() / 2  # the 4x store's
    assert 0 < invalidated[0] and abs(invalidated[1] - invalidated[0]) <= containers.STEP_PAGES


@pytest.mark.slow
def test_bench_load_throughput(benchmark, bench_photo):
    chunks = nightly_chunks(bench_photo)

    def load_all():
        store = ContainerStore(PHOTO_SCHEMA, 5)
        ChunkLoader(store).load_chunks(chunks)
        return store

    store = benchmark.pedantic(load_all, rounds=3, iterations=1)
    assert store.total_objects() == len(bench_photo)
    rate = len(bench_photo) / benchmark.stats["mean"]
    print(f"\nload rate: {rate:,.0f} objects/s "
          f"({rate * PHOTO_SCHEMA.record_nbytes() / 1e6:.0f} MB/s of records)")


def test_bench_daily_20gb_ingest_model(benchmark):
    # A 20 GB day must fit comfortably in a processing day on one 1999
    # node: sequential write at the node rate plus one read pass for
    # phase-1 indexing.
    daily = 20 * GB
    read_pass = benchmark(PAPER_NODE.scan_seconds, daily)
    write_pass = PAPER_NODE.scan_seconds(daily)
    hours = (read_pass + write_pass) / 3600.0
    print(f"\nsimulated 20 GB nightly ingest on one node: {hours:.2f} h "
          "(phase-1 read + phase-2 clustered write)")
    assert hours < 24.0


@pytest.mark.slow
def test_bench_clustered_vs_shuffled_chunks(benchmark, bench_photo):
    # Ablation: the paper's coherent chunks touch far fewer containers
    # per object than randomly shuffled arrivals of the same sizes.
    rng = np.random.default_rng(0)
    coherent = nightly_chunks(bench_photo)
    permuted_rows = rng.permutation(len(bench_photo))
    sizes = [len(c) for c in coherent]
    offsets = np.cumsum([0] + sizes)
    shuffled = [
        bench_photo.take(permuted_rows[lo:hi])
        for lo, hi in zip(offsets[:-1], offsets[1:])
    ]

    def touches_for(chunks):
        store = ContainerStore(PHOTO_SCHEMA, 5)
        reports = ChunkLoader(store).load_chunks(chunks)
        return sum(r.containers_touched for r in reports)

    coherent_touches = benchmark.pedantic(
        touches_for, args=(coherent,), rounds=2, iterations=1
    )
    shuffled_touches = touches_for(shuffled)
    print(f"\ncontainer touches: coherent chunks {coherent_touches} vs "
          f"shuffled arrivals {shuffled_touches} "
          f"({shuffled_touches / coherent_touches:.2f}x worse)")
    assert shuffled_touches > coherent_touches
