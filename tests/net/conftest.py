"""Fixtures for the network archive protocol tests.

Every test in this directory runs under a *per-test timeout guard*: a
wedged socket (the classic failure mode of network code) must fail the
test, not hang the suite — locally and in CI.  The guard is SIGALRM
based, so it needs no third-party plugin.

The remote differential fixtures mirror tests/session/conftest.py: one
in-process :class:`~repro.net.ArchiveServer` over the shared
session-scoped engine, so ``archive://`` results can be compared
row-for-row against every local entry point.
"""

from __future__ import annotations

import signal
import threading

import numpy as np
import pytest

from repro.net import ArchiveServer
from repro.session import Archive
from repro.storage import ContainerStore

#: Per-test wall-clock bound (seconds).  Generous: the slowest tests
#: (throttled shared-sweep scenarios) finish in a few seconds.
NET_TEST_TIMEOUT = 120.0


@pytest.fixture(autouse=True)
def _net_test_timeout():
    """Fail — never hang — any network test that wedges on a socket."""
    can_alarm = hasattr(signal, "SIGALRM") and (
        threading.current_thread() is threading.main_thread()
    )
    if not can_alarm:
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"network test exceeded the {NET_TEST_TIMEOUT}s timeout guard "
            "(wedged socket?)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, NET_TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def archive_server(engine):
    """An in-process archive server over the shared single-store engine."""
    with ArchiveServer(backend=engine) as server:
        yield server


@pytest.fixture(scope="module")
def remote_session(archive_server):
    """An ``archive://`` session against the in-process server."""
    with Archive.connect(archive_server.url) as session:
        yield session


@pytest.fixture()
def fresh_stores(photo, tags):
    """Privately-owned stores over the shared catalog: cold pools, and
    counters that see only this test's traffic."""
    return {
        "photo": ContainerStore.from_table(photo, depth=5),
        "tag": ContainerStore.from_table(tags, depth=5),
    }


@pytest.fixture(scope="session")
def same_rows():
    """Row-for-row comparison across entry points (see the session-suite
    twin): ``ordered=True`` compares positionally, otherwise both sides
    are canonicalized by sorting on all columns; float aggregates get a
    tight dtype-aware tolerance, everything else must match exactly."""

    def tolerances(dtype):
        if dtype == np.float32:
            return 1.0e-5, 1.0e-6
        return 1.0e-9, 1.0e-12

    def rows(table):
        return 0 if table is None else len(table)

    def check(expected, got, ordered=False):
        assert rows(expected) == rows(got)
        if rows(expected) == 0:
            if expected is not None and got is not None:
                assert expected.data.dtype == got.data.dtype
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
                rtol, atol = tolerances(a.dtype)
                np.testing.assert_allclose(a, b, rtol=rtol, atol=atol)
            else:
                np.testing.assert_array_equal(a, b)

    return check
