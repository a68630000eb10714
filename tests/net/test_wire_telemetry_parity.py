"""Telemetry parity across a wire-protocol change.

What a client job reports about a remote query — ``io_report()``,
``metrics()``, the per-node counters (client nodes and the server nodes
shipped back), the names of the spans in the merged trace and the
``EXPLAIN ANALYZE`` tree — must not depend on *how* those numbers cross
the wire.  ``golden_wire_telemetry.json`` holds them as captured before
the end-of-query statistics moved from two requests (``job_stats``,
``io_report``) onto the ``done`` frame, for four query shapes over an
``archive://`` session and a 2-endpoint cluster, plus one scripted
mid-stream failover.  Only the ``wire:stats`` span may differ: that
exchange no longer exists.

The golden counters count one container per trixel and cut morsels at
32 of them, as the sweep did when they were captured; the capture runs
with every trixel a page of its own and a stride of 32 pages, so the
sweep steps, counts and flushes as it did then.

To re-capture (at the commit whose numbers are the reference): delete
the JSON file and run this module once; the run writes it and skips.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
from unittest import mock

import pytest

from repro.machines.sweep import SweepScanner
from repro.net import ArchiveServer, ScriptedFaults
from repro.session import Archive
from repro.storage import ContainerStore, DistributedArchive, StoreSnapshot
from repro.storage.containers import Run
from repro.storage.replication import replicate_archive
import repro.storage.containers as containers_module

GOLDEN = pathlib.Path(__file__).with_name("golden_wire_telemetry.json")

STREAM = "SELECT objid, mag_r FROM photo WHERE mag_r < 19"
QUERIES = [
    ("stream", STREAM),
    (
        "aggregate",
        "SELECT objtype, AVG(mag_r) AS m, COUNT(objid) AS n FROM photo "
        "WHERE mag_r < 19 GROUP BY objtype",
    ),
    ("topk", "SELECT objid, mag_r FROM photo ORDER BY mag_r DESC, objid LIMIT 25"),
    ("cached_replay", STREAM),
]

#: NodeStats fields that count work, not time
COUNTERS = (
    "rows_out",
    "batches_out",
    "containers_read",
    "containers_from_pool",
    "containers_skipped",
    "predicate_evals",
    "peak_buffered_rows",
)
#: analyzed-plan details that belong to the run's timing or its
#: ephemeral port, not to its work
TIMED_DETAILS = ("time_ms", "first_row_ms", "endpoint")
#: the coordinator's ordered merge under a LIMIT emits until the limit
#: cancels it, so how far it got is a race; its presence is compared,
#: its counts are not
CUT_BY_LIMIT = ("merge_sort",)


def rounded(value):
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, dict):
        return {str(key): rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [rounded(item) for item in value]
    return value


def analyzed(tree, indent=0):
    skipped = TIMED_DETAILS
    if tree.kind in CUT_BY_LIMIT:
        skipped += ("rows", "batches")
    parts = [tree.kind] + [
        f"{key}={value}"
        for key, value in sorted(tree.detail.items())
        if key not in skipped
    ]
    lines = ["  " * indent + " ".join(parts)]
    lines += [analyzed(child, indent + 1) for child in tree.children]
    return "\n".join(lines)


def job_record(session, text):
    """Run ``text`` through ``explain_analyze`` and describe its job."""
    tree = session.explain_analyze(text)
    job = session.jobs[-1]
    client_nodes = []
    server_nodes = []
    for node, stats in job.node_stats().items():
        if node.name in CUT_BY_LIMIT:
            client_nodes.append([node.name])
            continue
        client_nodes.append(
            [node.name] + [int(getattr(stats, name)) for name in COUNTERS]
        )
        for remote in getattr(node, "remote_node_stats", None) or ():
            server_nodes.append(
                [remote["kind"]] + [int(remote[name]) for name in COUNTERS]
            )
    return {
        "rows": job.rows,
        "io_report": rounded(job.io_report()),
        "metrics": rounded(job.metrics()),
        "client_nodes": sorted(client_nodes),
        "server_nodes": sorted(server_nodes),
        "spans": sorted({span.name for span in job.trace().spans}),
        "analyzed": analyzed(tree),
    }


def _a_page_per_trixel(stores):
    """Re-page the stores' runs, as their builds and loads left them,
    with every trixel a page of its own: the unit the golden counts in."""
    with mock.patch.object(containers_module, "PAGE_BYTES", 1):
        for store in stores:
            snapshot = store.snapshot
            runs = [Run(r.data, r.ids, r.offsets).cut(r.lo, r.hi) for r in snapshot.runs]
            store.snapshot = StoreSnapshot(
                runs, snapshot.dtype, snapshot.ids, snapshot.sizes, snapshot.keys, 0
            )
    return stores


def capture(photo, tags):
    """Every record of the comparison, on fresh stores (cold pools) so
    the counters are exactly repeatable."""
    out = {}
    stores = {
        "photo": ContainerStore.from_table(photo, depth=5),
        "tag": ContainerStore.from_table(tags, depth=5),
    }
    _a_page_per_trixel(stores.values())
    with contextlib.ExitStack() as stack:
        server = stack.enter_context(
            ArchiveServer(stores=stores, cache=True, batch_rows=512)
        )
        session = stack.enter_context(Archive.connect(server.url))
        out["archive"] = {name: job_record(session, text) for name, text in QUERIES}

    halves = DistributedArchive.from_table(photo, depth=5, n_servers=2)
    halves.attach_source("tag", tags)
    _a_page_per_trixel(s for node in halves.servers for s in node.stores().values())
    with contextlib.ExitStack() as stack:
        servers = [
            stack.enter_context(
                ArchiveServer(stores=node.stores(), cache=True, batch_rows=512)
            )
            for node in halves.servers
        ]
        session = stack.enter_context(
            Archive.connect([server.url for server in servers])
        )
        out["cluster"] = {name: job_record(session, text) for name, text in QUERIES}

    # Both endpoints hold everything; shard 0 owns the whole assignment
    # and dies while its second batch frame is in flight, so the
    # undelivered remainder moves to shard 1.
    mirrored = DistributedArchive.from_table(photo, depth=5, n_servers=2)
    mirrored.attach_source("tag", tags)
    replicate_archive(mirrored, replication_factor=2)
    _a_page_per_trixel(s for node in mirrored.servers for s in node.stores().values())
    faults = ScriptedFaults(
        [{"point": "stream_batch", "action": "crash_server", "after": 1}]
    )
    servers = [
        ArchiveServer(
            stores=node.stores(),
            batch_rows=512,
            fault_policy=faults if node.server_id == 0 else None,
        ).start()
        for node in mirrored.servers
    ]
    try:
        with Archive.connect([server.url for server in servers]) as session:
            out["cluster_failover"] = {"stream": job_record(session, STREAM)}
    finally:
        for server in servers:
            server.stop()
    assert faults.fired == [("stream_batch", "crash_server")]
    return out


@pytest.fixture(scope="module")
def captured(photo, tags):
    with mock.patch.object(SweepScanner, "stride", 32):
        got = capture(photo, tags)
    if not GOLDEN.exists():
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"captured {GOLDEN.name}; run again to compare")
    return got


CASES = [
    (backend, name)
    for backend in ("archive", "cluster")
    for name, _text in QUERIES
] + [("cluster_failover", "stream")]


@pytest.mark.parametrize("backend,name", CASES)
def test_job_telemetry_matches_golden(captured, backend, name):
    golden = json.loads(GOLDEN.read_text())[backend][name]
    got = captured[backend][name]
    golden["spans"] = [span for span in golden["spans"] if span != "wire:stats"]
    assert got == golden


def test_failover_record_shows_the_failover(captured):
    record = captured["cluster_failover"]["stream"]
    assert record["io_report"]["failovers"] == 1
    assert record["io_report"]["attempts"] == 2
