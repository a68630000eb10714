"""The coordinator's exchange over paced remote shards ends with its job.

The exchange reads its shard streams on its own thread and is woken by
its own output's cancel as well as by its shards' batches, so:

* ``Job.cancel()`` while it waits on shards that have not yet produced
  a row ends every node of the job within half a paced sweep step, the
  job ``CANCELLED``, and no ``qet-*`` thread (the servers' too) is left;
* a LIMIT met from the shards' first batches ends every node of the job
  within half a step of the cursor's end, although each shard's own
  LIMIT keeps it streaming — the exchange cancels the remote leaves,
  whose cancel reaches the servers, instead of waiting for their next
  batch.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.net import ArchiveServer
from repro.query.qet import ScanNode
from repro.session import Archive, JobState
from repro.storage import DistributedArchive

#: seconds a shard's sweep spends on each page
PACE = 0.4

#: met by the two shards' first batches (a scan's first flush is
#: RAMP_ROWS rows), short of either shard's own LIMIT copy
LIMIT = ScanNode.RAMP_ROWS * 3 // 2


@pytest.fixture(scope="module")
def paced_cluster(photo):
    """A two-endpoint remote cluster whose servers' sweeps are paced."""
    archive = DistributedArchive.from_table(photo, depth=5, n_servers=2)
    for node in archive.servers:
        node.store.sweeper().throttle = PACE
    servers = [ArchiveServer(stores=node.stores()).start() for node in archive.servers]
    try:
        with Archive.connect([server.url for server in servers]) as session:
            yield session, archive
    finally:
        for server in servers:
            server.stop()


def _qet_threads():
    return {t for t in threading.enumerate() if t.name.startswith("qet-")}


def _wait_until(condition, timeout):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    return condition()


def test_cancel_while_the_exchange_waits_ends_the_job_promptly(paced_cluster):
    session, archive = paced_cluster
    before = _qet_threads()
    job = session.submit("SELECT objid FROM photo")
    sweepers = [node.store.sweeper() for node in archive.servers]
    assert _wait_until(
        lambda: all(s.active_subscriptions() == 1 for s in sweepers), timeout=10.0
    ), "a shard scan never joined its sweep"
    assert job.rows == 0, "the shards delivered before the exchange waited"
    job.cancel()
    assert _wait_until(lambda: not job.alive_nodes(), PACE / 2), job.alive_nodes()
    assert job.state is JobState.CANCELLED
    assert _wait_until(lambda: _qet_threads() <= before, timeout=10.0)


def test_a_met_limit_ends_every_node_with_the_cursor(paced_cluster):
    session, _archive = paced_cluster
    job = session.submit(f"SELECT objid FROM photo LIMIT {LIMIT}")
    assert len(job.cursor.to_table()) == LIMIT
    assert _wait_until(lambda: not job.alive_nodes(), PACE / 2), job.alive_nodes()
