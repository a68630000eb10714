"""Shared benchmark fixtures: a medium synthetic survey and its stores.

Benchmarks print paper-vs-measured rows (run with ``-s`` to see them) and
assert the *shape* of each claim — who wins and by roughly what factor —
rather than absolute 1999-hardware numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from types import SimpleNamespace

from repro.catalog import SkySimulator, SurveyParameters, make_tag_table
from repro.htm.cover import cover_region
from repro.htm.depthmap import DensityMap
from repro.query import QueryEngine
from repro.session import Archive
from repro.storage import ContainerStore


@pytest.fixture(scope="session")
def bench_simulator():
    """Medium catalog with ground-truth injections for the science benches."""
    params = SurveyParameters(
        n_galaxies=12000,
        n_stars=8000,
        n_quasars=400,
        n_lens_pairs=15,
        n_quasar_neighbor_pairs=15,
        seed=987,
    )
    simulator = SkySimulator(params)
    simulator.photo_table = simulator.generate()
    return simulator


@pytest.fixture(scope="session")
def bench_photo(bench_simulator):
    return bench_simulator.photo_table


@pytest.fixture(scope="session")
def bench_tags(bench_photo):
    return make_tag_table(bench_photo)


@pytest.fixture(scope="session")
def bench_photo_store(bench_photo):
    return ContainerStore.from_table(bench_photo, depth=6)


@pytest.fixture(scope="session")
def bench_tag_store(bench_tags):
    return ContainerStore.from_table(bench_tags, depth=6)


@pytest.fixture(scope="session")
def bench_engine(bench_photo_store, bench_tag_store):
    return QueryEngine({"photo": bench_photo_store, "tag": bench_tag_store})


@pytest.fixture(scope="session")
def bench_session(bench_engine):
    """The one way to run a query: a session over the benchmark engine."""
    with Archive.connect(bench_engine) as session:
        yield session


@pytest.fixture(scope="session")
def bench_density(bench_photo):
    return DensityMap.from_positions(bench_photo["ra"], bench_photo["dec"], 6)


def container_split(store, region):
    """The paper's three-way split of a store's occupied containers under
    ``region``: a property of the region's cover at the store's depth
    and of which containers are occupied, so it is computed from those
    (a session query reads exactly the accepted + bisected ones).

    Returns counts of accepted / bisected / rejected containers, the
    objects accepted wholesale vs point-tested, and the bytes touched.
    """
    coverage = cover_region(region, store.depth)
    split = SimpleNamespace(
        accepted=0, bisected=0, rejected=0, wholesale=0, point_tested=0, nbytes=0
    )
    itemsize = store.snapshot.arena.itemsize
    for htm_id, rows in store.container_sizes().items():
        if coverage.inside.contains(htm_id):
            split.accepted += 1
            split.wholesale += rows
        elif coverage.partial.contains(htm_id):
            split.bisected += 1
            split.point_tested += rows
        else:
            split.rejected += 1
            continue
        split.nbytes += rows * itemsize
    return split


def print_table(title, headers, rows):
    """Render a small aligned table into the captured stdout."""
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
