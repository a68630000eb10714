"""Fixtures for the chaos suite: clusters with scripted faults.

Every test runs under the same SIGALRM timeout guard as tests/net — a
chaos test that hangs (the exact bug failover exists to prevent) must
fail with a traceback, never wedge the suite.

The cluster fixture is deliberately *function*-scoped: chaos tests kill
servers, so each test gets a fresh set of :class:`ArchiveServer`\\ s over
the shared (read-only, module-scoped) replicated archive.
"""

from __future__ import annotations

import signal
import threading
from unittest import mock

import numpy as np
import pytest

import repro.storage.containers as containers_module
from repro.net import ArchiveServer
from repro.storage import DistributedArchive
from repro.storage.replication import replicate_archive

#: the page size of the chaos archives' stores: small enough that a
#: shard's stream spans several sweep runs, morsels and batch frames, so
#: a scripted kill after the first frames still lands mid-stream
CHAOS_PAGE_BYTES = 2048

#: Per-test wall-clock bound (seconds).  A failover path that deadlocks
#: or a kill that silently hangs a stream must fail loudly.
CHAOS_TEST_TIMEOUT = 120.0


@pytest.fixture(autouse=True)
def _chaos_test_timeout():
    """Fail — never hang — any chaos test that wedges mid-failover."""
    can_alarm = hasattr(signal, "SIGALRM") and (
        threading.current_thread() is threading.main_thread()
    )
    if not can_alarm:
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"chaos test exceeded the {CHAOS_TEST_TIMEOUT}s timeout guard "
            "(failover hung instead of completing or failing?)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    previous_timer = signal.setitimer(signal.ITIMER_REAL, CHAOS_TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *previous_timer)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def local(session):
    """The fault-free reference: the root single-store session, under a
    name the tests' own ``with ... as session`` blocks do not shadow."""
    return session


@pytest.fixture(scope="module")
def replicated_archive(photo, tags):
    """A 3-server partitioning with 2-way container replication, paged
    at :data:`CHAOS_PAGE_BYTES`.

    With the wrap-around placement of :func:`replicate_archive`, server
    ``k`` holds its own containers plus server ``k-1``'s — any single
    server death leaves every container with one live copy.
    """
    with mock.patch.object(containers_module, "PAGE_BYTES", CHAOS_PAGE_BYTES):
        archive = DistributedArchive.from_table(photo, depth=5, n_servers=3)
        archive.attach_source("tag", tags)
        replicate_archive(archive, replication_factor=2)
    return archive


@pytest.fixture(scope="module")
def split_archive(photo, tags):
    """A 2-server partitioning without replication, paged at
    :data:`CHAOS_PAGE_BYTES`: every container has exactly one home, so
    a dead server's undelivered ranges have none."""
    with mock.patch.object(containers_module, "PAGE_BYTES", CHAOS_PAGE_BYTES):
        archive = DistributedArchive.from_table(photo, depth=5, n_servers=2)
        archive.attach_source("tag", tags)
    return archive


@pytest.fixture()
def chaos_cluster(replicated_archive):
    """Factory starting one ArchiveServer per node of an archive (the
    replicated one unless ``archive=`` names another).

    ``start(policies={server_id: FaultPolicy})`` returns the started
    servers; every server started through the factory is stopped at
    teardown (stop() is idempotent, so killed servers clean up too).
    The small ``batch_rows`` makes shard streams span several wire
    frames, so mid-stream kills land with rows genuinely in flight.
    """
    started = []

    def start(policies=None, batch_rows=512, archive=replicated_archive):
        policies = policies or {}
        servers = [
            ArchiveServer(
                stores=node.stores(),
                batch_rows=batch_rows,
                fault_policy=policies.get(node.server_id),
            ).start()
            for node in archive.servers
        ]
        started.extend(servers)
        return servers

    yield start
    for server in started:
        server.stop()


@pytest.fixture(scope="session")
def same_rows():
    """Row-for-row comparison across entry points (twin of the
    tests/net fixture): ``ordered=True`` compares positionally,
    otherwise both sides are canonicalized by sorting on all columns;
    float aggregates get a tight dtype-aware tolerance."""

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
