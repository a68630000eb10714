"""The shared-scan acceptance tests: concurrent jobs share physical I/O.

The tentpole claim, verified through the *real* query path (``Session``
-> ``ScanNode`` -> ``SweepScanner`` -> ``BufferPool``): with K >= 4
concurrent interactive jobs over the same store, the total containers
(pages of the store's arena) physically read stay below 1.5x one full
sweep — versus ~Kx under the old per-query read path — and a job
submitted mid-sweep joins at the current position and completes on
wrap-around, seeing every row exactly once.
"""

import threading
import time

import numpy as np
import pytest

from repro.query.qet import ScanNode
from repro.session import Archive
from repro.storage import ContainerStore

K_JOBS = 4


@pytest.fixture()
def fresh_store(photo):
    """A fresh photo store: its own pool and sweeper, untouched stats."""
    return ContainerStore.from_table(photo, depth=2)


def _pages(store):
    """How many pages the store's arena has: the sweep's and pool's unit."""
    return len(store.snapshot.pages())


def _scan_node(job):
    for node in job._prepared.root.walk():
        if isinstance(node, ScanNode):
            return node
    raise AssertionError("job has no scan node")


class TestConcurrentSharing:
    def test_k_jobs_read_less_than_1_5_sweeps(self, photo, fresh_store):
        n_containers = _pages(fresh_store)
        expected_rows = len(photo)
        with Archive.connect(stores={"photo": fresh_store}) as session:
            jobs = [
                session.submit("SELECT objid, mag_r FROM photo")
                for _ in range(K_JOBS)
            ]
            tables = [None] * K_JOBS

            def drain(index):
                tables[index] = jobs[index].cursor.to_table()

            threads = [
                threading.Thread(target=drain, args=(k,)) for k in range(K_JOBS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)

            # Correctness first: all K jobs saw the whole catalog.
            for table in tables:
                assert table is not None and len(table) == expected_rows

            # The acceptance criterion: K concurrent jobs cost less than
            # 1.5 physical sweeps (vs ~K sweeps under per-query reads).
            physically_read = fresh_store.buffer_pool.stats.misses
            assert physically_read < 1.5 * n_containers
            # Logically, K full sweeps were served.
            served = sum(
                job.io_report()["containers_read"]
                + job.io_report()["containers_from_pool"]
                for job in jobs
            )
            assert served == K_JOBS * n_containers

    def test_io_telemetry_surfaces_on_job_and_cursor(self, photo, fresh_store):
        with Archive.connect(stores={"photo": fresh_store}) as session:
            cursor = session.execute("SELECT objid, mag_r FROM photo")
            cursor.to_table()
            report = cursor.io_report()
            n = _pages(fresh_store)
            assert report["containers_read"] + report["containers_from_pool"] == n
            assert report["containers_skipped"] == 0
            assert report["buffer_pool_hit_rate"] is not None
            assert report["sweep_sharing_factor"] is not None

    def test_spatial_job_skips_outside_cover_without_reading(
        self, photo, fresh_store
    ):
        with Archive.connect(stores={"photo": fresh_store}) as session:
            cursor = session.execute(
                "SELECT objid FROM photo WHERE CIRCLE(40, 30, 5)"
            )
            cursor.to_table()
            report = cursor.io_report()
            n = _pages(fresh_store)
            assert report["containers_skipped"] > 0
            delivered = report["containers_read"] + report["containers_from_pool"]
            assert delivered + report["containers_skipped"] == n
            # A lone pruned query must not physically read outside its
            # cover: the sweep skips pages it wants nothing on entirely.
            assert fresh_store.buffer_pool.stats.misses == delivered


class TestMidSweepArrival:
    def test_job_submitted_mid_sweep_wraps_and_shares(self, photo, fresh_store):
        """Satellite: mid-sweep arrival through the *real* query path."""
        n_containers = _pages(fresh_store)
        expected_rows = len(photo)
        sweeper = fresh_store.sweeper()
        sweeper.throttle = 0.005  # slow the pump so the overlap is real
        try:
            with Archive.connect(stores={"photo": fresh_store}) as session:
                first = session.submit("SELECT objid, mag_r FROM photo")
                tables = {}

                def drain(name, job):
                    tables[name] = job.cursor.to_table()

                first_drainer = threading.Thread(target=drain, args=("first", first))
                first_drainer.start()

                # Wait until the first job's subscription is genuinely
                # mid-sweep, then submit the second.
                deadline = time.time() + 20
                while time.time() < deadline:
                    node = _scan_node(first)
                    if node.subscription is not None and node.subscription.seen >= 3:
                        break
                    time.sleep(0.002)
                second = session.submit("SELECT objid, mag_r FROM photo")
                second_node = _scan_node(second)
                assert second_node.subscription.start > 0

                second_drainer = threading.Thread(
                    target=drain, args=("second", second)
                )
                second_drainer.start()
                first_drainer.join(timeout=60)
                second_drainer.join(timeout=60)
        finally:
            sweeper.throttle = 0.0

        # The late job saw every trixel exactly once (wrap-around):
        # every row present, none duplicated.
        assert len(tables["second"]) == expected_rows
        assert len(np.unique(np.asarray(tables["second"]["objid"]))) == expected_rows
        assert len(tables["first"]) == expected_rows

        # Shared reads: one physical sweep served both jobs; the wrap
        # portion of the late job came out of the buffer pool.
        assert fresh_store.buffer_pool.stats.misses == n_containers
        assert sweeper.stats.deliveries == 2 * n_containers
        assert sweeper.stats.sharing_factor() > 1.0
