"""Fixtures for the distributed executor: partitioned archives + engines.

The same session catalog (see tests/conftest.py) is partitioned across
1, 2, and 5 simulated servers, each hosting the photo store plus the
co-partitioned tag store so tag routing works distributed.  Queries run
through sessions (``dsessions`` here, the root ``session`` fixture over
the single-store engine as the differential reference).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import DistributedQueryEngine
from repro.session import Archive
from repro.storage import DistributedArchive

SERVER_COUNTS = (1, 2, 5)


@pytest.fixture(scope="session")
def make_archive(photo, tags):
    """Factory: a photo+tag archive over ``n_servers`` (fresh each call)."""

    def build(n_servers, depth=5):
        archive = DistributedArchive.from_table(
            photo, depth=depth, n_servers=n_servers
        )
        archive.attach_source("tag", tags)
        return archive

    return build


@pytest.fixture(scope="module")
def archives(make_archive):
    """Partitioned archives keyed by server count (treat as read-only)."""
    return {n: make_archive(n) for n in SERVER_COUNTS}


@pytest.fixture(scope="module")
def dengines(archives):
    """Distributed engines over the shared archives."""
    return {n: DistributedQueryEngine(a) for n, a in archives.items()}


@pytest.fixture(scope="module")
def dsessions(dengines):
    """One session per distributed engine, keyed by server count."""
    sessions = {n: Archive.connect(e) for n, e in dengines.items()}
    yield sessions
    for session in sessions.values():
        session.close()


def _field_tolerances(dtype):
    """(rtol, atol) for float comparison: partial-aggregate recombination
    changes the summation tree, so float32 sums differ at the last few
    ulps; everything else is byte-identical copies."""
    if dtype == np.float32:
        return 1.0e-5, 1.0e-6
    return 1.0e-9, 1.0e-12


def _rows(table):
    return 0 if table is None else len(table)


@pytest.fixture(scope="session")
def assert_same_rows():
    """Row-for-row comparison of a distributed result vs the oracle.

    ``ordered=True`` compares positionally (ORDER BY with a full
    tiebreak, or aggregate output whose group order is deterministic);
    otherwise both sides are canonicalized by sorting on all columns.
    Non-aggregate values are verbatim copies and must match exactly;
    recombined float aggregates get a tight dtype-aware tolerance.
    """

    def check(expected, got, ordered=False):
        assert _rows(expected) == _rows(got)
        if _rows(expected) == 0:
            return
        assert expected.data.dtype == got.data.dtype
        names = expected.schema.field_names()
        left, right = expected.data, got.data
        if not ordered:
            left = np.sort(left, order=names)
            right = np.sort(right, order=names)
        for name in names:
            a, b = left[name], right[name]
            if np.issubdtype(a.dtype, np.floating):
                rtol, atol = _field_tolerances(a.dtype)
                np.testing.assert_allclose(a, b, rtol=rtol, atol=atol)
            else:
                np.testing.assert_array_equal(a, b)

    return check
