"""Session benchmark artifact: the archive's perf trajectory on disk.

Runs a fixed query corpus through the session API over three backends —
single-store, a 3-server distributed partitioning of the same catalog,
and a *remote* ``archive://`` session against an in-process
:class:`~repro.net.ArchiveServer` (so the network tax is measured from
day one: per-query wire round-trips land in the artifact next to the
latency numbers) — and writes time-to-first-row / time-to-completion
per query to a JSON artifact, so successive PRs can compare the numbers
instead of guessing.  Each query also records its shared-scan I/O
telemetry (containers physically read vs. served from the buffer pool
vs. skipped), and a *concurrent* scenario measures what the shared
sweep buys: K interactive jobs over one store, with the buffer-pool hit
rate, sweep sharing factor, and read amplification vs. a single
physical sweep written alongside the latency numbers.

Run:  PYTHONPATH=src python benchmarks/bench_session.py [--out BENCH_session.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import threading
import time

from repro import Archive, ContainerStore, SkySimulator, SurveyParameters
from repro.catalog import make_tag_table
from repro.net import ArchiveServer
from repro.storage import DistributedArchive

#: Fixed corpus: one query per plan shape the session must serve well.
CORPUS = [
    ("full_scan_stream", "SELECT objid FROM photo"),
    ("tag_routed_filter", "SELECT objid, mag_r FROM photo WHERE mag_r < 19"),
    ("spatial_cone", "SELECT objid FROM photo WHERE CIRCLE(40, 30, 5)"),
    (
        "order_limit_topk",
        "SELECT objid, mag_r FROM photo ORDER BY mag_r, objid LIMIT 50",
    ),
    (
        "grouped_aggregate",
        "SELECT objtype, AVG(mag_r) AS m, COUNT(objid) AS n FROM photo "
        "GROUP BY objtype",
    ),
    (
        "set_operation",
        "(SELECT objid FROM photo WHERE mag_r < 18) INTERSECT "
        "(SELECT objid FROM photo WHERE mag_g < 19)",
    ),
]

N_SERVERS = 3
CONCURRENT_JOBS = 4
CATALOG = SurveyParameters(
    n_galaxies=30000, n_stars=18000, n_quasars=900, seed=20020101
)


def _query_stats(cursor, table):
    """The per-query core metrics: latency, throughput, and the
    morsel-coalescing telemetry (vectorized predicate/region passes —
    one per morsel, not one per container — and root batch count)."""
    stats = cursor.node_stats()
    root_stats = next(iter(stats.values()))
    completion = cursor.time_to_completion
    return {
        "rows": int(len(table)),
        "time_to_first_row_ms": (
            None
            if cursor.time_to_first_row is None
            else round(cursor.time_to_first_row * 1e3, 3)
        ),
        "time_to_completion_ms": round(completion * 1e3, 3),
        "predicate_evals": int(sum(s.predicate_evals for s in stats.values())),
        "batches": int(root_stats.batches_out),
        "rows_per_sec": (
            None if completion <= 0 else int(len(table) / completion)
        ),
    }


def _phase_breakdown(cursor):
    """Trace-derived milliseconds per phase: where did this query's wall
    time go?  Client phases (parse/plan/queue/execute) by span name,
    every ``wire:*`` round-trip folded into one ``wire`` bucket; QET
    node and grafted server spans overlap the execute window and are
    deliberately excluded from the sum."""
    totals = {}
    for span in cursor.trace().spans:
        duration = span.duration()
        if duration is None:
            continue
        if span.name in ("parse", "plan", "queue", "execute"):
            key = span.name
        elif span.name.startswith("wire:"):
            key = "wire"
        else:
            continue
        totals[key] = totals.get(key, 0.0) + duration
    return {key: round(value * 1e3, 3) for key, value in totals.items()}


def _bench_session(session):
    telemetry = getattr(session.executor, "telemetry", None)
    queries = {}
    for name, text in CORPUS:
        trips_before = telemetry.snapshot() if telemetry is not None else 0
        cursor = session.execute(text)
        table = cursor.to_table()
        io = cursor.io_report()
        entry = _query_stats(cursor, table)
        entry["containers_read"] = io["containers_read"]
        entry["containers_from_pool"] = io["containers_from_pool"]
        entry["containers_skipped"] = io["containers_skipped"]
        entry["phases"] = _phase_breakdown(cursor)
        if telemetry is not None:
            entry["wire_round_trips"] = telemetry.snapshot() - trips_before
        queries[name] = entry
    return queries


#: Batch-size sweep: how the morsel target trades per-container overhead
#: against time-to-first-row.
SWEEP_BATCH_ROWS = (4096, 65536)
SWEEP_QUERIES = ("full_scan_stream", "grouped_aggregate", "order_limit_topk")


def _bench_batch_size_sweep(photo, tags):
    stores = {
        "photo": ContainerStore.from_table(photo, depth=6),
        "tag": ContainerStore.from_table(tags, depth=6),
    }
    corpus = dict(CORPUS)
    # One warm-up lap so the shared BufferPool is equally hot for every
    # label — otherwise the first label alone pays the cold reads and
    # the comparison measures pool state, not the batch-size effect.
    with Archive.connect(stores=stores) as warmup:
        warmup.query_table(corpus["full_scan_stream"])
    sweep = {}
    for batch_rows in SWEEP_BATCH_ROWS:
        with Archive.connect(stores=stores, batch_rows=batch_rows) as session:
            entries = {}
            for name in SWEEP_QUERIES:
                cursor = session.execute(corpus[name])
                entries[name] = _query_stats(cursor, cursor.to_table())
            sweep[str(batch_rows)] = entries
    return sweep


def _bench_concurrent(photo):
    """K concurrent interactive jobs over one fresh store.

    The tentpole scenario: under the old per-query read path this cost
    ~K physical sweeps; under the shared sweep + buffer pool it must
    cost less than 1.5 (the artifact records the measured amplification
    so regressions show up in the trajectory).
    """
    # A container is a page of the store's arena (the unit the pool
    # counts), so a single sweep physically reads each page once.
    store = ContainerStore.from_table(photo, depth=5)
    n_containers = len(store.snapshot.pages())
    with Archive.connect(stores={"photo": store}) as session:
        started = time.perf_counter()
        jobs = [
            session.submit("SELECT objid, mag_r FROM photo")
            for _ in range(CONCURRENT_JOBS)
        ]
        rows = [0] * CONCURRENT_JOBS

        def drain(index):
            rows[index] = len(jobs[index].cursor.to_table())

        threads = [
            threading.Thread(target=drain, args=(k,))
            for k in range(CONCURRENT_JOBS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - started

    pool = store.buffer_pool.stats
    sweep = store.sweeper().stats
    return {
        "jobs": CONCURRENT_JOBS,
        "rows_per_job": rows,
        "wall_ms": round(wall * 1e3, 3),
        "containers_in_store": n_containers,
        "containers_physically_read": pool.misses,
        "read_amplification_vs_single_sweep": round(
            pool.misses / n_containers, 3
        ),
        "buffer_pool_hit_rate": round(pool.hit_rate(), 4),
        "sweep_sharing_factor": round(sweep.sharing_factor(), 3),
    }


#: Multi-tenant scenario: K authenticated users repeating a small corpus
#: against one cached server, then pushing uneven batch loads through
#: the fair-share queue.
TENANTS = ("alice", "bob", "carol")
TENANT_REPEATS = 4
TENANT_QUERIES = ("tag_routed_filter", "spatial_cone", "order_limit_topk")
#: Deliberately uneven batch load, so the artifact shows the per-user
#: dispatch ledger the deficit-round-robin queue keeps.
TENANT_BATCH_JOBS = {"alice": 3, "bob": 2, "carol": 1}


def _bench_multi_tenant(photo, tags):
    """K tenants x M repeats against one cached, authenticated server.

    Records the service-tier counters next to the latency numbers: the
    cache hit rate (catalog entries are shared, so after the first
    tenant's cold lap every repeat replays — p50 collapses toward the
    wire cost), and the per-user dispatch counts from the fair-share
    batch queue.  The *gating* versions of these assertions live in
    ``tests/service/`` on deterministic counters; the artifact tracks
    the measured trajectory.
    """
    corpus = dict(CORPUS)
    server = ArchiveServer(
        stores={
            "photo": ContainerStore.from_table(photo, depth=6),
            "tag": ContainerStore.from_table(tags, depth=6),
        },
        auth={user: f"{user}-token" for user in TENANTS},
        cache=True,
    ).start()
    host_port = server.url.removeprefix("archive://")
    latencies_ms = []
    client_hits = 0
    try:
        sessions = {
            user: Archive.connect(
                f"archive://{user}:{user}-token@{host_port}"
            )
            for user in TENANTS
        }
        for _ in range(TENANT_REPEATS):
            for user in TENANTS:
                for name in TENANT_QUERIES:
                    started = time.perf_counter()
                    job = sessions[user].submit(corpus[name])
                    job.cursor.to_table()
                    latencies_ms.append(
                        (time.perf_counter() - started) * 1e3
                    )
                    if job.io_report()["cache"]["hit"]:
                        client_hits += 1

        # Uneven batch pressure through the deficit-round-robin queue.
        batch_jobs = [
            sessions[user].submit(
                corpus["grouped_aggregate"], query_class="batch"
            )
            for user, count in TENANT_BATCH_JOBS.items()
            for _ in range(count)
        ]
        for job in batch_jobs:
            job.cursor.to_table()

        dispatched = {
            user: int(count)
            for user, count in sorted(
                server.session._batch_queue.dispatched.items()
            )
        }
        cache_stats = server.service.cache.stats.as_dict()
        for session in sessions.values():
            session.close()
    finally:
        server.stop()

    ordered = sorted(latencies_ms)

    def percentile(p):
        return round(ordered[min(len(ordered) - 1, int(p * len(ordered)))], 3)

    total = len(latencies_ms)
    return {
        "tenants": len(TENANTS),
        "repeats": TENANT_REPEATS,
        "interactive_queries": total,
        "latency_p50_ms": percentile(0.50),
        "latency_p99_ms": percentile(0.99),
        "client_observed_hit_rate": round(client_hits / total, 4),
        "server_cache": cache_stats,
        "batch_jobs_per_user": dict(TENANT_BATCH_JOBS),
        "batch_dispatched_per_user": dispatched,
    }


#: Failover scenario: the query a mid-stream server kill interrupts.
FAILOVER_QUERY = "SELECT objid, mag_r FROM photo WHERE mag_r < 21"


def _bench_failover(photo):
    """Completion latency with and without a mid-query server kill.

    A 2-way replicated 3-server cluster answers the same query twice:
    fault-free, and with a :class:`ScriptedFaults` kill of server 1
    after its second streamed batch (the undelivered container ranges
    re-route to the surviving replica).  The wall-clock failover tax is
    **non-gating** (it depends on host timing); row-for-row correctness
    under the kill is **gating** — a mismatch fails the whole run.
    """
    import numpy as np

    from repro.net import ScriptedFaults
    from repro.storage.replication import replicate_archive

    archive = DistributedArchive.from_table(photo, depth=6, n_servers=N_SERVERS)
    replicate_archive(archive, replication_factor=2)

    def run_once(policies):
        servers = [
            ArchiveServer(
                stores=node.stores(),
                batch_rows=2048,
                fault_policy=policies.get(node.server_id),
            ).start()
            for node in archive.servers
        ]
        try:
            with Archive.connect([s.url for s in servers]) as session:
                started = time.perf_counter()
                job = session.submit(FAILOVER_QUERY)
                table = job.cursor.to_table()
                wall = time.perf_counter() - started
                report = job.io_report()
        finally:
            for server in servers:
                server.stop()
        return table, wall, report

    clean_table, clean_wall, _clean_report = run_once({})
    faults = ScriptedFaults(
        [{"point": "stream_batch", "action": "crash_server", "after": 1}]
    )
    killed_table, killed_wall, killed_report = run_once({1: faults})

    clean_ids = np.sort(np.asarray(clean_table["objid"]))
    killed_ids = np.sort(np.asarray(killed_table["objid"]))
    if not np.array_equal(clean_ids, killed_ids):
        raise RuntimeError(
            "failover scenario returned different rows than the fault-free "
            f"run: {len(clean_ids)} vs {len(killed_ids)} — failover lost or "
            "duplicated data"
        )
    return {
        "query": FAILOVER_QUERY,
        "rows": int(len(clean_table)),
        "rows_match_fault_free_run": True,
        "kill_fired": bool(faults.fired),
        "failovers": killed_report["failovers"],
        "attempts": killed_report["attempts"],
        "clean_wall_ms": round(clean_wall * 1e3, 3),
        "killed_wall_ms": round(killed_wall * 1e3, 3),
        "failover_tax_nongating": (
            None if clean_wall <= 0 else round(killed_wall / clean_wall, 3)
        ),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_session.json")
    parser.add_argument(
        "--trace-out",
        default="BENCH_trace_breakdown.json",
        help="trace-derived phase breakdown artifact (CI uploads it next "
        "to the main artifact; pass an empty string to skip)",
    )
    args = parser.parse_args()

    photo = SkySimulator(CATALOG).generate()
    tags = make_tag_table(photo)

    local = Archive.connect(stores={
        "photo": ContainerStore.from_table(photo, depth=6),
        "tag": ContainerStore.from_table(tags, depth=6),
    })
    archive = DistributedArchive.from_table(photo, depth=6, n_servers=N_SERVERS)
    archive.attach_source("tag", tags)
    distributed = Archive.connect(archive=archive)
    # The remote backend: the same stores behind an in-process
    # ArchiveServer and a real TCP hop, so the artifact records the
    # network tax (latency deltas + wire round-trips per query).
    server = ArchiveServer(stores={
        "photo": ContainerStore.from_table(photo, depth=6),
        "tag": ContainerStore.from_table(tags, depth=6),
    }).start()
    remote = Archive.connect(server.url)

    started = time.perf_counter()
    payload = {
        "benchmark": "session_api",
        "catalog_rows": int(len(photo)),
        "n_servers": N_SERVERS,
        "python": platform.python_version(),
        "backends": {
            "local": _bench_session(local),
            "distributed": _bench_session(distributed),
            "remote": _bench_session(remote),
        },
        "concurrent": _bench_concurrent(photo),
        "batch_size_sweep": _bench_batch_size_sweep(photo, tags),
        "multi_tenant": _bench_multi_tenant(photo, tags),
        "failover": _bench_failover(photo),
    }
    payload["wall_seconds"] = round(time.perf_counter() - started, 3)
    local.close()
    distributed.close()
    remote.close()
    server.stop()

    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.trace_out:
        breakdown = {
            "benchmark": "session_api_trace_breakdown",
            "unit": "ms",
            "backends": {
                backend: {
                    name: entry.get("phases", {})
                    for name, entry in queries.items()
                }
                for backend, queries in payload["backends"].items()
            },
        }
        with open(args.trace_out, "w") as fh:
            json.dump(breakdown, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(
        f"wrote {args.out} ({len(CORPUS)} queries x 3 backends + "
        f"{CONCURRENT_JOBS}-way concurrent scenario, "
        f"{payload['wall_seconds']} s; concurrent read amplification "
        f"{payload['concurrent']['read_amplification_vs_single_sweep']}x, "
        f"multi-tenant cache hit rate "
        f"{payload['multi_tenant']['client_observed_hit_rate']})"
    )


if __name__ == "__main__":
    main()
