"""One thread per QET node: what a running tree promises on that thread.

Every node runs on the one thread :meth:`QETNode.start` gives it, named
``qet-<node.name>``; more cores come from more partition servers
(``process_shards=True``), never from threads inside a node.  The
contracts checked here:

* a lone query's rows arrive in sweep order — containers by id (an idle
  sweep parks at the top of the store), rows within a container as they
  were loaded — so a full scan, a filtered scan and the concatenated
  batch stream are that order exactly, and a top-k breaks ties by
  arrival, ascending and DESC, including a LIMIT cut inside a tie class;
* a grouped aggregate matches a numpy evaluation of the catalog;
* each node of a running tree has exactly one thread and no other
  ``qet-*`` thread appears while it runs — on one store and on a
  two-server archive, whose exchange reads its shards' streams itself;
* a mid-run cancel and a failing node both end every node thread and
  leave the store's sweep;
* a job reports no worker pool.

The reference is numpy over the catalog; no code is shared with the
engine.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.query import QueryEngine
from repro.query.errors import ExecutionError
from repro.query.qet import ScanNode
from repro.session import Archive, JobState
from repro.storage import ContainerStore, DistributedArchive

GALAXY = 2

#: relative tolerance for AVG of a float32 column: the engine answers in
#: float32 (the suite's float32 tolerance), numpy in float64
AVG_RTOL = 1.0e-5


@pytest.fixture(scope="module")
def store(photo):
    """A store of its own, so no other suite's subscriber moves its sweep."""
    return ContainerStore.from_table(photo, depth=5)


@pytest.fixture(scope="module")
def swept(store, photo):
    """The catalog in the order a lone query sees it."""
    return photo.take(np.argsort(store.container_ids_for(photo), kind="stable"))


@pytest.fixture()
def session(store):
    with Archive.connect(QueryEngine({"photo": store})) as session:
        yield session


@pytest.fixture()
def throttled(photo):
    """A session over a fresh store whose sweep is slowed, so a job is
    still running when the test looks at it."""
    store = ContainerStore.from_table(photo, depth=5)
    store.sweeper().throttle = 0.08  # a page a step: ~7 s a lap
    with Archive.connect(QueryEngine({"photo": store})) as session:
        yield session, store


@pytest.fixture()
def throttled_cluster(photo):
    """A session over an in-process two-server archive whose shards'
    sweeps are slowed as :func:`throttled`'s is."""
    archive = DistributedArchive.from_table(photo, depth=5, n_servers=2)
    for server in archive.servers:
        server.store.sweeper().throttle = 0.08
    with Archive.connect(archive=archive) as session:
        yield session


def _descending(values):
    """Stable descending order: ties keep their arrival order."""
    return np.argsort(-values.astype(np.float64), kind="stable")


#: query -> the rows of the swept catalog it returns, in order
ORDER_CASES = {
    "SELECT objid, ra, dec, mag_r FROM photo": lambda t: np.arange(len(t)),
    "SELECT objid, mag_r FROM photo WHERE mag_r < 19 AND objtype = GALAXY": (
        lambda t: np.flatnonzero((t["mag_r"] < 19) & (t["objtype"] == GALAXY))
    ),
    "SELECT objid, mag_r FROM photo ORDER BY mag_r LIMIT 25": (
        lambda t: np.argsort(t["mag_r"], kind="stable")[:25]
    ),
    "SELECT objid, mag_r FROM photo ORDER BY mag_r DESC LIMIT 25": (
        lambda t: _descending(t["mag_r"])[:25]
    ),
    # objtype has three values, so the LIMIT cut falls inside a tie class
    # and only arrival order decides which rows make it.
    "SELECT objid, objtype FROM photo ORDER BY objtype LIMIT 40": (
        lambda t: np.argsort(t["objtype"], kind="stable")[:40]
    ),
    "SELECT objid, objtype FROM photo ORDER BY objtype DESC LIMIT 40": (
        lambda t: _descending(t["objtype"])[:40]
    ),
}


@pytest.mark.parametrize("query", list(ORDER_CASES))
def test_rows_arrive_in_sweep_order_row_for_row(session, swept, query):
    rows = ORDER_CASES[query](swept)
    assert len(rows), "an empty expectation would check nothing"
    got = session.query_table(query)
    columns = got.schema.field_names()
    assert columns == query.split(" FROM ")[0].removeprefix("SELECT ").split(", ")
    assert len(got) == len(rows)
    for name in columns:
        np.testing.assert_array_equal(got[name], swept[name][rows], err_msg=name)


def test_scan_batches_stream_in_sweep_order(session, swept):
    """Not just the final table: the stream of batches concatenates to
    the sweep's row order."""
    query = "SELECT objid FROM photo WHERE mag_r < 21"
    batches = [b for b in session.execute(query) if len(b)]
    assert len(batches) > 1, "one batch would not show a stream's order"
    np.testing.assert_array_equal(
        np.concatenate([b["objid"] for b in batches]),
        swept["objid"][swept["mag_r"] < 21],
    )


def test_grouped_aggregate_matches_numpy(session, photo):
    got = session.query_table(
        "SELECT objtype, COUNT(objid) AS n, AVG(mag_r) AS m, MIN(mag_g) AS lo,"
        " MAX(mag_g) AS hi FROM photo GROUP BY objtype ORDER BY objtype"
    )
    kinds = np.unique(photo["objtype"])
    np.testing.assert_array_equal(got["objtype"], kinds)
    groups = [photo["objtype"] == kind for kind in kinds]
    np.testing.assert_array_equal(got["n"], [mask.sum() for mask in groups])
    assert got["m"].dtype == np.float32
    np.testing.assert_allclose(
        got["m"],
        [photo["mag_r"][mask].astype(np.float64).mean() for mask in groups],
        rtol=AVG_RTOL,
    )
    np.testing.assert_array_equal(got["lo"], [photo["mag_g"][m].min() for m in groups])
    np.testing.assert_array_equal(got["hi"], [photo["mag_g"][m].max() for m in groups])


def _qet_threads():
    return {t for t in threading.enumerate() if t.name.startswith("qet-")}


def _wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


#: one query per node shape: a streaming chain, a top-k, a full sort, a
#: limit, an aggregate under a HAVING filter, a set operation
SHAPES = [
    "SELECT objid FROM photo WHERE mag_r < 20",
    "SELECT objid, mag_r FROM photo ORDER BY mag_r LIMIT 25",
    "SELECT objid, mag_r FROM photo ORDER BY mag_r",
    "SELECT objid FROM photo LIMIT 7",
    "SELECT objtype, COUNT(objid) AS n FROM photo GROUP BY objtype HAVING n > 100",
    # an ordered side, so the UNION keeps its node (bare sides would fuse)
    "(SELECT objid FROM photo WHERE mag_r < 16) UNION "
    "(SELECT objid FROM photo WHERE mag_u < 17 ORDER BY objid)",
]


#: the coordinator's shapes over shards: an exchange, and a merge
#: aggregate over an exchange
CLUSTER_SHAPES = [
    "SELECT objid FROM photo",
    "SELECT objtype, COUNT(objid) AS n FROM photo GROUP BY objtype",
]


def _assert_one_thread_per_node(session, query):
    before = _qet_threads()
    job = session.submit(query)
    try:
        nodes = list(job._prepared.root.walk())
        threads = [node._thread for node in nodes]
        assert [t.name for t in threads] == [f"qet-{node.name}" for node in nodes]
        assert len(set(threads)) == len(nodes)
        # The scan is paced, so the tree is still running: every qet-*
        # thread that appeared belongs to one of this job's nodes.
        assert any(node.is_alive() for node in nodes)
        assert _qet_threads() - before - set(threads) == set()
    finally:
        job.cancel()
        job.join(10.0)
    assert job.alive_nodes() == []


@pytest.mark.parametrize("query", SHAPES)
def test_each_node_runs_on_one_named_thread(throttled, query):
    session, _store = throttled
    _assert_one_thread_per_node(session, query)


@pytest.mark.parametrize("query", CLUSTER_SHAPES)
def test_each_node_of_a_cluster_tree_runs_on_one_named_thread(
    throttled_cluster, query
):
    _assert_one_thread_per_node(throttled_cluster, query)


def test_mid_run_cancel_stops_every_node_thread(throttled):
    """Cancel while the paced sweep is mid-lap: the job goes terminal,
    every node thread exits and the scan leaves the sweep."""
    session, store = throttled
    sweeper = store.sweeper()
    job = session.submit("SELECT objid, mag_r FROM photo")
    assert _wait_until(lambda: sweeper.active_subscriptions() == 1), "scan never joined"
    assert job.alive_nodes(), "the tree finished before it could be cancelled"
    job.cancel()
    assert _wait_until(lambda: not job.alive_nodes()), job.alive_nodes()
    assert job.state is JobState.CANCELLED
    assert _wait_until(lambda: sweeper.active_subscriptions() == 0)


def test_a_failing_node_fails_the_job_and_stops_every_thread(
    monkeypatch, throttled
):
    """An error on a node's thread reaches the reader, fails the job, and
    ends every thread of the tree — the ones above and the one that
    failed — and the failed scan leaves the sweep."""
    session, store = throttled
    store.sweeper().throttle = 0.0

    def fail(self, *args, **kwargs):
        raise ExecutionError("scan died")

    monkeypatch.setattr(ScanNode, "_flush", fail)
    job = session.submit("SELECT objid, mag_r FROM photo ORDER BY mag_r LIMIT 5")
    with pytest.raises(ExecutionError, match="scan died"):
        job.cursor.to_table()
    assert job.state is JobState.FAILED
    assert "scan died" in str(job.error)
    job.join(10.0)
    assert job.alive_nodes() == []
    assert _wait_until(lambda: store.sweeper().active_subscriptions() == 0)


def test_serial_engine_reports_no_worker_pool(session):
    job = session.submit("SELECT objid FROM photo WHERE mag_r < 20")
    job.cursor.to_table()
    assert not [name for name in job.metrics() if name.startswith("workers.")]
    assert "workers" not in job.io_report()
    assert all(
        not hasattr(stats, "workers") for stats in job.node_stats().values()
    )
