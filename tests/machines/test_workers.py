"""Morsel-parallel execution: workers=K must be invisible except in speed.

The contract under test is exactness: a ``workers=4`` engine returns the
same rows *in the same order* as a ``workers=1`` engine — full scans,
predicates, tie-heavy top-k, DESC top-k, and grouped aggregates — plus
the two operational invariants the pool adds: the deterministic
worker-utilization counter (every worker processes at least one work
item whenever the sweep delivers enough runs) and prompt, orphan-free
teardown on mid-run cancel.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.machines.workers import (
    RunSource,
    SequencedEmitter,
    WorkerPool,
    resolve_workers,
)
from repro.query import QueryEngine
from repro.query.qet import NodeStats
from repro.session import Archive
from repro.storage import ContainerStore

WORKERS = 4


# ----------------------------------------------------------------------
# unit: resolve_workers
# ----------------------------------------------------------------------


def test_resolve_workers_explicit_wins(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "8")
    assert resolve_workers(3) == 3


def test_resolve_workers_env_fallback(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "4")
    assert resolve_workers(None) == 4


def test_resolve_workers_defaults_to_serial(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers(None) == 1


def test_resolve_workers_clamps_and_survives_garbage(monkeypatch):
    assert resolve_workers(0) == 1
    assert resolve_workers(-2) == 1
    monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
    assert resolve_workers(None) == 1


# ----------------------------------------------------------------------
# unit: WorkerPool
# ----------------------------------------------------------------------


def test_worker_pool_runs_every_index():
    seen = []
    lock = threading.Lock()

    def work(index):
        with lock:
            seen.append(index)

    WorkerPool(WORKERS, name="t-pool").run(work)
    assert sorted(seen) == list(range(WORKERS))


def test_worker_pool_propagates_first_error_and_fires_on_fail_once():
    fails = []

    def work(index):
        if index == 2:
            raise ValueError("worker 2 died")

    pool = WorkerPool(WORKERS, name="t-pool", on_fail=lambda: fails.append(1))
    with pytest.raises(ValueError, match="worker 2 died"):
        pool.run(work)
    assert fails == [1]
    # No pool threads may outlive run().
    assert not [t for t in threading.enumerate() if t.name.startswith("t-pool-")]


# ----------------------------------------------------------------------
# unit: SequencedEmitter
# ----------------------------------------------------------------------


def test_sequenced_emitter_restores_sequence_order():
    emitted = []
    emitter = SequencedEmitter(lambda item: emitted.append(item) or True,
                               max_pending=64)
    # Adversarial completion order; item 3 spans two runs (seq 3 and 4).
    for first_seq, n_runs in [(5, 1), (3, 2), (1, 1), (2, 1), (0, 1)]:
        assert emitter.submit(first_seq, n_runs, [f"item-{first_seq}"])
    assert emitted == ["item-0", "item-1", "item-2", "item-3", "item-5"]


def test_sequenced_emitter_empty_payload_advances_sequence():
    emitted = []
    emitter = SequencedEmitter(lambda item: emitted.append(item) or True)
    assert emitter.submit(1, 1, ["b"])
    assert emitter.submit(0, 1, [])  # fully-filtered morsel: no tables
    assert emitted == ["b"]


def test_sequenced_emitter_poisons_on_rejected_emit():
    emitter = SequencedEmitter(lambda item: False)
    assert emitter.submit(0, 1, ["dropped"]) is False
    assert emitter.submit(1, 1, ["later"]) is False


def test_sequenced_emitter_backpressure_never_blocks_next_needed():
    """A deposit of the next-needed sequence must enter even when the
    reorder buffer is at capacity — otherwise the emitter deadlocks."""
    emitted = []
    emitter = SequencedEmitter(lambda item: emitted.append(item) or True,
                               max_pending=1)
    assert emitter.submit(1, 1, ["b"])  # fills the buffer
    done = threading.Event()

    def deposit_next():
        assert emitter.submit(0, 1, ["a"])
        done.set()

    thread = threading.Thread(target=deposit_next, daemon=True)
    thread.start()
    assert done.wait(timeout=5.0), "next-needed deposit blocked at capacity"
    thread.join(timeout=5.0)
    assert emitted == ["a", "b"]


def test_sequenced_emitter_threaded_jitter_drains_in_order():
    """The real contract: each worker holds one in-flight item at a time
    (pull -> process -> submit), finishing in scheduler-dependent order;
    the emitter must still produce exactly sequence order."""
    emitted = []
    emitter = SequencedEmitter(lambda item: emitted.append(item) or True,
                               max_pending=4)
    lock = threading.Lock()
    counter = iter(range(64))
    rng = np.random.default_rng(99)
    delays = rng.uniform(0.0, 0.003, size=64)

    def work(index):
        while True:
            with lock:
                seq = next(counter, None)
            if seq is None:
                return
            time.sleep(delays[seq])  # out-of-order completion
            assert emitter.submit(seq, 1, [seq])

    WorkerPool(4, name="t-emit").run(work)
    assert emitted == list(range(64))


# ----------------------------------------------------------------------
# unit: RunSource fair first round
# ----------------------------------------------------------------------


def test_run_source_fair_first_round(photo):
    """With >= K delivered runs, every one of K workers gets >= 1 item,
    pulled runs are contiguous, and nothing is lost or duplicated."""
    store = ContainerStore.from_table(photo, depth=5)
    subscription = store.sweeper().subscribe()
    source = RunSource(subscription, WORKERS, target_rows=512)
    pulled = [[] for _ in range(WORKERS)]

    def work(index):
        while True:
            item = source.pull(index)
            if item is None:
                return
            pulled[index].append(item)

    WorkerPool(WORKERS, name="t-pull").run(work)
    assert all(len(items) >= 1 for items in pulled), (
        "fair first round violated: a worker pulled nothing"
    )
    # Every sequence number appears exactly once across all workers.
    covered = []
    for items in pulled:
        for first_seq, runs in items:
            covered.extend(range(first_seq, first_seq + len(runs)))
    assert sorted(covered) == list(range(len(covered)))
    rows = sum(
        len(table)
        for items in pulled
        for _seq, runs in items
        for run in runs
        for _h, table, _p in run
    )
    assert rows == len(photo)


# ----------------------------------------------------------------------
# differential: workers=1 vs workers=K, row for row
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def serial_engine(photo_store, tag_store):
    return QueryEngine({"photo": photo_store, "tag": tag_store}, workers=1)


@pytest.fixture(scope="module")
def parallel_engine(photo_store, tag_store):
    return QueryEngine(
        {"photo": photo_store, "tag": tag_store}, workers=WORKERS
    )


@pytest.fixture()
def serial_session(serial_engine):
    with Archive.connect(serial_engine) as session:
        yield session


@pytest.fixture()
def parallel_session(parallel_engine):
    with Archive.connect(parallel_engine) as session:
        yield session


def _positionally_equal(expected, got, float_tol=False):
    assert len(expected) == len(got)
    assert expected.data.dtype == got.data.dtype
    for name in expected.schema.field_names():
        a, b = expected[name], got[name]
        if float_tol and np.issubdtype(a.dtype, np.floating):
            rtol, atol = (
                (1.0e-5, 1.0e-6) if a.dtype == np.float32 else (1.0e-9, 1.0e-12)
            )
            np.testing.assert_allclose(a, b, rtol=rtol, atol=atol)
        else:
            np.testing.assert_array_equal(a, b)


DIFFERENTIAL_QUERIES = [
    "SELECT objid, ra, dec, mag_r FROM photo",
    "SELECT objid, mag_r FROM photo WHERE mag_r < 19 AND objtype = 0",
    "SELECT objid, mag_r FROM photo ORDER BY mag_r LIMIT 25",
    "SELECT objid, mag_r FROM photo ORDER BY mag_r DESC LIMIT 25",
    # Massive ties: objtype has 3 values, so the LIMIT cut falls inside a
    # tie class and only arrival order disambiguates — the hard case.
    "SELECT objid, objtype FROM photo ORDER BY objtype LIMIT 40",
    "SELECT objid, objtype FROM photo ORDER BY objtype DESC LIMIT 40",
]


@pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
def test_parallel_rows_match_serial_row_for_row(
    serial_session, parallel_session, query
):
    expected = serial_session.query_table(query)
    got = parallel_session.query_table(query)
    _positionally_equal(expected, got)


def test_parallel_aggregate_matches_serial(serial_session, parallel_session):
    query = (
        "SELECT objtype, COUNT(objid) AS n, AVG(mag_r) AS m, MIN(mag_g) AS lo,"
        " MAX(mag_g) AS hi FROM photo GROUP BY objtype ORDER BY objtype"
    )
    expected = serial_session.query_table(query)
    got = parallel_session.query_table(query)
    # Partial-aggregate merge changes the float summation order only.
    _positionally_equal(expected, got, float_tol=True)


def test_parallel_scan_batches_stream_in_sweep_order(
    serial_session, parallel_session
):
    """Not just the final table: the *stream* of batches concatenates to
    the identical row order (the SequencedEmitter contract)."""
    query = "SELECT objid FROM photo WHERE mag_r < 21"
    serial = [b for b in serial_session.execute(query) if len(b)]
    parallel = [b for b in parallel_session.execute(query) if len(b)]
    a = np.concatenate([b["objid"] for b in serial])
    b = np.concatenate([b["objid"] for b in parallel])
    np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------------
# the deterministic utilization gate
# ----------------------------------------------------------------------


def test_worker_utilization_counter_gates(parallel_engine):
    """The CI-gated evidence that workers=K actually engages K workers:
    the fair first round makes ``min(worker_items) >= 1`` an invariant
    (3607 containers -> ~113 delivery runs >> K), not a wall clock."""
    with Archive.connect(parallel_engine) as session:
        job = session.submit("SELECT objid, mag_r FROM photo WHERE mag_r < 20")
        job.cursor.to_table()
        assert job.metrics()["workers.configured"] == WORKERS
        items = NodeStats().fold(*job.node_stats().values()).worker_items
        assert len(items) == WORKERS
        assert min(items) >= 1, f"idle worker despite fair round: {items}"
        report = job.io_report()["workers"]
        assert report["configured"] == WORKERS
        assert report["active"] == WORKERS
        assert report["work_items"] == sum(items)
        assert report["utilization"] == 1.0


def test_serial_engine_reports_no_worker_pool(serial_engine):
    with Archive.connect(serial_engine) as session:
        job = session.submit("SELECT objid FROM photo WHERE mag_r < 20")
        job.cursor.to_table()
        assert "workers.configured" not in job.metrics()
        assert job.io_report()["workers"] is None


# ----------------------------------------------------------------------
# cancel: no orphaned workers
# ----------------------------------------------------------------------


def _live_worker_threads():
    return [
        t
        for t in threading.enumerate()
        if t.is_alive() and t.name.startswith(("qet-scan-worker",
                                               "qet-agg-worker",
                                               "qet-topk-worker"))
    ]


def test_mid_run_cancel_kills_every_worker(photo):
    """Cancel while K workers are mid-sweep: the job goes terminal and
    every pool thread exits — no orphans keep pulling the sweep."""
    store = ContainerStore.from_table(photo, depth=5)
    store.sweeper().throttle = 0.002  # slow the sweep so we cancel mid-run
    engine = QueryEngine({"photo": store}, workers=WORKERS)
    with Archive.connect(engine) as session:
        job = session.submit("SELECT objid, mag_r FROM photo")
        deadline = time.monotonic() + 10.0
        while not _live_worker_threads() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert _live_worker_threads(), "workers never started"
        job.cancel()
        deadline = time.monotonic() + 10.0
        while _live_worker_threads() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _live_worker_threads(), (
            f"orphaned worker threads after cancel: "
            f"{[t.name for t in _live_worker_threads()]}"
        )
        assert job.state.is_terminal()
    deadline = time.monotonic() + 10.0
    while store.sweeper().active_subscriptions() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert store.sweeper().active_subscriptions() == 0
