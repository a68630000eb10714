"""Shared fixtures: one small synthetic survey reused across the suite.

Catalog generation is the slowest setup step, so the survey, its stores,
and the query engine are session-scoped; tests treat them as read-only.
Tests that need mutation or special parameters build their own.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.catalog import SkySimulator, SurveyParameters, make_tag_table
from repro.query import QueryEngine
from repro.session import Archive
from repro.storage import ContainerStore

#: Suite-wide per-test wall-clock bound (seconds).  Generous — the point
#: is that a wedged stream or sweep fails one test with a traceback
#: instead of hanging the whole run.  Directory conftests may arm a
#: tighter guard (tests/net uses 120s); nesting is safe because each
#: guard saves and restores the previous handler and timer.
SUITE_TEST_TIMEOUT = 300.0


@pytest.fixture(autouse=True)
def _suite_test_timeout():
    """Fail — never hang — any test that wedges on a lock or stream."""
    can_alarm = hasattr(signal, "SIGALRM") and (
        threading.current_thread() is threading.main_thread()
    )
    if not can_alarm:
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded the {SUITE_TEST_TIMEOUT}s suite timeout guard "
            "(wedged stream or sweep?)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    previous_timer = signal.setitimer(signal.ITIMER_REAL, SUITE_TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *previous_timer)
        signal.signal(signal.SIGALRM, previous)


#: test directory -> what its tests must leave as they found it: the
#: threads named by these prefixes — ``qet-*`` where they run query
#: trees, ``river-*`` where they run river graphs — plus, where tests
#: start servers, ``"sockets"``: the open sockets and the ``archive-*``
#: threads; and, with any of them, the child processes (shard servers).
#: ``sweep-*`` threads are not watched: one ends up to a second after
#: its store is dropped.
LEAVE_NOTHING_BEHIND = {
    "net": ("sockets", "qet-"),
    "chaos": ("sockets", "qet-"),
    "service": ("sockets", "qet-"),
    "session": ("qet-",),
    "query": ("qet-",),
    "distributed": ("qet-",),
    "storage": ("qet-",),
    "machines": ("river-", "qet-"),
    "obs": ("qet-",),
    "htm": ("qet-", "river-"),
    "geometry": ("qet-", "river-"),
    "catalog": ("qet-", "river-"),
    "archive": ("qet-", "river-"),
    "science": ("qet-", "river-"),
    "interchange": ("qet-", "river-"),
}


def _open_sockets():
    """How many of this process's file descriptors are sockets."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            pass  # the listing's own descriptor, or one closed meanwhile
    return count


def _threads(prefixes):
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith(prefixes)
    }


def _network_state():
    return _open_sockets(), sorted(thread.name for thread in _threads("archive-"))


@pytest.fixture(autouse=True)
def _leave_nothing_behind(request):
    """A network test ends with the open sockets and the ``archive-*``
    threads (server accept loops, cluster probes) it began with; a test
    that runs query trees or river graphs leaves no ``qet-*`` (node) or
    ``river-*`` thread it started; and no watched test leaves a child
    process (a shard server) it started.

    Server-side connection threads close their socket a moment after
    the client hangs up, and a cancelled node thread exits a moment
    after its stream is cancelled, so the check polls briefly before it
    fails.
    """
    path = request.node.path
    watch = ()
    if path.parent.parent.name == "tests":
        watch = LEAVE_NOTHING_BEHIND.get(path.parent.name, ())
    if not watch:
        yield
        return
    checks = []
    if "sockets" in watch and os.path.isdir("/proc/self/fd"):
        network = _network_state()

        def sockets_left():
            after = _network_state()
            if after != network:
                return f"(open sockets, archive-* threads) {network} -> {after}"

        checks.append(sockets_left)
    prefixes = tuple(prefix for prefix in watch if prefix != "sockets")
    if prefixes:
        threads = _threads(prefixes)

        def threads_left():
            names = sorted(thread.name for thread in _threads(prefixes) - threads)
            if names:
                return f"threads {names}"

        checks.append(threads_left)
    children = set(multiprocessing.active_children())

    def left():
        parts = [check() for check in checks]
        new = set(multiprocessing.active_children()) - children
        if new:
            parts.append(f"child processes {sorted(child.name for child in new)}")
        return ", ".join(part for part in parts if part)

    yield
    deadline = time.monotonic() + 5.0
    while leftover := left():
        if time.monotonic() > deadline:
            pytest.fail(f"test left something behind: {leftover}")
        time.sleep(0.02)


@pytest.fixture(scope="session")
def simulator():
    """A seeded simulator with ground-truth injections."""
    params = SurveyParameters(
        n_galaxies=4000,
        n_stars=2500,
        n_quasars=200,
        n_lens_pairs=8,
        n_quasar_neighbor_pairs=8,
        seed=1234,
    )
    sim = SkySimulator(params)
    sim.photo_table = sim.generate()
    return sim


@pytest.fixture(scope="session")
def photo(simulator):
    """The session's photometric catalog (treat as read-only)."""
    return simulator.photo_table


@pytest.fixture(scope="session")
def tags(photo):
    """Tag-object table of the session catalog."""
    return make_tag_table(photo)


@pytest.fixture(scope="session")
def photo_store(photo):
    """Container store of full records at depth 5."""
    return ContainerStore.from_table(photo, depth=5)


@pytest.fixture(scope="session")
def tag_store(tags):
    """Container store of tag records at depth 5."""
    return ContainerStore.from_table(tags, depth=5)


@pytest.fixture(scope="session")
def engine(photo_store, tag_store):
    """Query engine over the session stores."""
    return QueryEngine({"photo": photo_store, "tag": tag_store})


@pytest.fixture()
def session(engine):
    """A fresh session over the shared engine: the one way to run a
    query (the engine itself only prepares trees)."""
    with Archive.connect(engine) as session:
        yield session


@pytest.fixture()
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(20000601)
