"""A tracked shard scan's ``delivered`` claim is exact, drawn.

A remote shard scan stamps every batch with the cumulative claim of the
containers whose rows are all in the stream — the intervals a failover
subtracts from the assignment before it re-routes the rest.  The claim
grows by one interval per span of a delivered run (containers
consecutive in the store's snapshot), so it spans ids the snapshot does
not hold; a load can add one of those mid-scan.  Drawn here: stores with
appended rows, a page size so small that an append leaves the store in
several runs (a sweep step, the shortest run, is a few rows), so one
delivery can cross from run to run, a scan that joins the sweep mid-lap,
a load that
lands between two containers the scan already delivered (plus rows for a
delivered container), and a second join after the load, which reads the
grown store like every later step.

After every batch, the claim intersected with the ids of the snapshot
the scan last read holds only containers whose rows (at their delivery,
those the ``WHERE`` keeps) are all in the stream; at the end the claim
holds every delivered container.  When the scan follows a new snapshot,
the ids it takes as added — those of the runs written since that the
earlier snapshot lacked — are the whole-store difference of the two.
"""

from __future__ import annotations

import contextlib
import itertools
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.table import ObjectTable
from repro.htm import RangeSet
from repro.machines.sweep import SweepScanner
from repro.query.optimizer import plan_query
from repro.query.parser import parse_query
from repro.query.qet import ScanNode, Stream
from repro.storage import ContainerStore, StoreSnapshot
import repro.storage.containers as containers_module

#: the depth-3 container id space
LO, HI = 8 * 4**3, 16 * 4**3 - 1

_next_objid = itertools.count(10**15)


def _rows(photo, picks):
    """Copies of catalog rows under objids no other row has."""
    table = photo.take(np.asarray(picks))
    data = table.data.copy()
    data["objid"] = [next(_next_objid) for _ in range(len(data))]
    return ObjectTable(table.schema, data)


def _between_delivered(snapshot, delivered):
    """An id no container holds, between two containers consecutive in
    the snapshot that were both delivered; ``None`` when there is none."""
    ids = snapshot.ids.tolist()
    for a, b in zip(ids, ids[1:]):
        if a in delivered and b in delivered and b - a > 1:
            return a + 1
    return None


@contextlib.contextmanager
def _followed():
    """Record ``(added, previous, snapshot)`` each time a scan's claim
    follows a new snapshot."""
    follows = []
    added_since = StoreSnapshot.added_since

    def recording(snapshot, previous):
        follows.append((added_since(snapshot, previous), previous, snapshot))
        return follows[-1][0]

    with mock.patch.object(StoreSnapshot, "added_since", recording):
        yield follows


def _kept(plan, schema, rows):
    """Objids of the rows the ``WHERE`` keeps."""
    table = ObjectTable(schema, rows)
    return set(table.data["objid"][plan.predicate(table)].tolist())


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_a_tracked_scan_claims_exactly_what_is_in_its_stream(photo, data):
    row = photo.data.dtype.itemsize
    step_rows = data.draw(st.sampled_from([1, 2, 5, None]), label="step_rows")
    page_bytes = (
        containers_module.PAGE_BYTES
        if step_rows is None
        else -(-step_rows * row // containers_module.STEP_PAGES)
    )
    with mock.patch.object(containers_module, "PAGE_BYTES", page_bytes):
        _claims_exactly(photo, data)


def _claims_exactly(photo, data):
    store = ContainerStore.from_table(photo.take(np.arange(160)), depth=3)
    ids = store.occupied_ids()
    appended = data.draw(st.lists(st.sampled_from(ids), max_size=4), label="appended")
    if appended:
        store.append(_rows(photo, range(len(appended))), appended)
    stride = data.draw(st.sampled_from([1, 3, 32]), label="stride")
    lead_steps = data.draw(st.integers(0, 12), label="lead")
    load_at = data.draw(st.integers(0, 40), label="load_at")
    ranges = data.draw(
        st.one_of(
            st.just([(LO, HI)]),
            st.lists(
                st.tuples(st.integers(LO, HI), st.integers(0, 40)), min_size=1, max_size=6
            ).map(lambda pairs: [(lo, min(lo + n, HI)) for lo, n in pairs]),
        ),
        label="assignment",
    )
    batch_rows = data.draw(st.sampled_from([4, 16, 64]), label="batch_rows")
    plan = plan_query(
        parse_query("SELECT * FROM photo WHERE mag_r < 21"), {"photo": store.schema}
    )
    candidates = RangeSet(ranges)

    scanner = SweepScanner(store)
    scanner.attach(sink=lambda run: None)  # moves the sweep: the scan joins mid-lap
    for _ in range(lead_steps):
        scanner.step(stride)
    runs = []
    subscription = scanner.attach(candidates=candidates, sink=runs.append)

    node = ScanNode(
        store, plan, batch_rows=batch_rows, candidates=candidates, track_delivery=True
    )
    node.output = Stream(maxsize=0)
    consumed = []  # every run the node has taken, in order
    delivered = set()

    def feed():
        steps = 0
        while not subscription.done or runs:
            while runs:
                run = runs.pop(0)
                consumed.append(run)
                delivered.update(htm_id for htm_id, _rows, _hit in run.containers())
                yield run
            if subscription.done:
                break
            if steps == load_at:
                snapshot = store.snapshot
                added = _between_delivered(snapshot, delivered)
                if added is None:
                    added = next(i for i in range(LO, HI + 1) if i not in snapshot.ids)
                touched = [added, added]
                if delivered:
                    touched.append(min(delivered))
                store.append(_rows(photo, range(len(touched))), touched)
                # A later join, while the scan is mid-lap.
                scanner.attach(sink=lambda run: None)
            scanner.step(stride)
            steps += 1

    emitted = []
    emit = node._emit

    def recording_emit(batch):
        emitted.append((batch, len(consumed)))
        return emit(batch)

    node._emit = recording_emit
    with _followed() as follows:
        node._consume(feed())
    for added, previous, snapshot in follows:
        np.testing.assert_array_equal(added, np.setdiff1d(snapshot.ids, previous.ids))

    stream = set()
    for batch, taken in emitted:
        stream.update(batch.data["objid"].tolist())
        complete = set()
        for run in consumed[:taken]:
            for htm_id, rows, _from_pool in run.containers():
                if _kept(plan, store.schema, rows) <= stream:
                    complete.add(htm_id)
        latest = consumed[taken - 1].snapshot.ids.tolist()
        claim = RangeSet(batch.delivered)
        claimed = {htm_id for htm_id in latest if claim.contains(htm_id)}
        assert claimed <= complete, sorted(claimed - complete)
    final = RangeSet(node._claim)
    assert all(final.contains(htm_id) for htm_id in delivered)


def test_a_load_landing_mid_stream_leaves_the_claim_by_its_new_run(photo):
    # Pages of one row, so a step (the shortest run) is 32 rows and a
    # load into a 600-row store leaves it in three runs; the scan has
    # delivered trixels on both sides of the load when it lands.
    row = photo.data.dtype.itemsize
    with mock.patch.object(containers_module, "PAGE_BYTES", row):
        store = ContainerStore.from_table(photo.take(np.arange(600)), depth=3)
        plan = plan_query(parse_query("SELECT * FROM photo"), {"photo": store.schema})
        scanner = SweepScanner(store)
        runs = []
        subscription = scanner.attach(sink=runs.append)
        node = ScanNode(store, plan, batch_rows=16, track_delivery=True)
        node.output = Stream(maxsize=0)
        ids = store.occupied_ids()
        middle = ids[len(ids) // 2]
        lacked = [i for i in range(middle, HI) if i not in ids][:2]

        def feed():
            for steps in itertools.count():
                if steps == 8:  # two new trixels and rows for a held one
                    store.append(_rows(photo, range(3)), lacked + [middle])
                if scanner.step(1) is None:
                    break
                yield from runs
                runs.clear()

        with _followed() as follows:
            node._consume(feed())
    assert subscription.completed() and len(store.snapshot.runs) == 3
    assert len(follows) == 1
    (added, previous, snapshot), = follows
    np.testing.assert_array_equal(added, np.setdiff1d(snapshot.ids, previous.ids))
    assert added.tolist() == lacked
    final = RangeSet(node._claim)
    assert all(final.contains(htm_id) for htm_id in store.occupied_ids())
