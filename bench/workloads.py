"""The five workloads.

Each ``run_<workload>(run)`` builds its part of the system from the fixed
catalog, runs one warm-up lap, measures, verifies every answer against
the oracle and leaves its numbers in ``run.results`` (end-to-end) and,
in a traced run, ``run.layers`` (per layer).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import defaultdict
from contextlib import ExitStack

import numpy as np

from bench import config, gen, probes
from bench.catalog import load_catalog
from bench.harness import (
    Budget,
    OpCounter,
    closed_loop,
    open_loop,
    run_load,
    run_query,
    verify,
)
from bench.metrics import Results, quantile
from bench.oracle import Oracle
from bench.reference import SetupSpeed, kernel_seconds
from bench.serve import ChildServer, pin
from bench.trace import SpanRecorder, self_time_by_layer

_REFUSALS = ("AuthenticationError", "QuotaExceededError")


class Run:
    """State and results of one workload run."""

    def __init__(self, workload, seed, seconds, ops, traced, scale, started):
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.scale = scale
        self.budget = Budget(float(seconds), ops)
        #: ``perf_counter`` reading at process start
        self.started = started
        self.rng = gen.make_rng(seed, workload)
        self.tracer = SpanRecorder() if traced else None
        self.op_ids = OpCounter()
        #: end-to-end numbers, times and rates at the reference speed
        self.results = Results()
        #: the same times and rates as the clock gave them
        self.raw = Results()
        #: speed factor of each measured phase (see bench/reference.py)
        self.speeds = []
        #: speed factor of the set-up, sampled from here to ``setup_done``
        self.setup_speed = SetupSpeed().start()
        self.layers = Results()
        self.attempted = 0
        self.failed = 0
        self.catalog_build_s = 0.0
        self.self_time_share = {}
        self.per_shape = {}
        #: pids and ports of child servers, for the no-orphan self-test
        self.children = []
        self.errors = []
        self.sample_rows = []

    # -- setup ----------------------------------------------------------

    def load_catalog(self):
        photo, self.catalog_build_s = load_catalog(self.scale)
        return photo

    def setup_done(self):
        """Call right before the first timed op."""
        self.setup_speed = self.setup_speed.stop()
        elapsed = time.perf_counter() - self.started - self.catalog_build_s
        self.raw.put("setup_s", elapsed)
        self.results.put("setup_s", elapsed / self.setup_speed)

    def put_build(self, rows, seconds, bytes_per_row):
        self.layers.put("storage.build_rows_per_s", rows / seconds, samples=rows)
        self.layers.put("storage.bytes_per_row", bytes_per_row)

    # -- clients --------------------------------------------------------

    def query_client(self, session, name=""):
        def run_one(op, due=None):
            return run_query(
                session, op, next(self.op_ids), self.tracer, client=name, due=due
            )

        return run_one

    def warm_up(self, clients, laps):
        """One warm-up lap: the first ``laps`` ops of each client's stream
        (and a first run of the reference kernel, which builds its heap)."""
        kernel_seconds()
        for run_one, ops in clients:
            for _ in range(laps):
                op = next(ops, None)
                if op is None:
                    break
                sample = run_one(op)
                if sample.error is not None:
                    raise RuntimeError(f"warm-up op failed:\n{sample.error}")
        if self.tracer is not None:
            self.tracer.spans.clear()

    def measure(
        self, session, clients, warm_laps, oracle, photo,
        phases=None, catalog_rows=None, lookup=None, stores=(),
    ):  # fmt: skip
        """The course every workload takes once its system stands: warm
        up, measure, verify, summarise and (traced) probe.

        ``phases(clients)`` runs the measured phases and returns them, the
        closed-loop one first (default: one closed loop over the whole
        budget).  ``lookup`` are the tables of the ``lookup_ids`` probe
        (default: the first catalog rows) and ``stores`` the local stores
        the sweep probe may step.  Returns the phases.
        """
        self.warm_up(clients, warm_laps)
        before = counters(session) if self.traced else None
        self.setup_done()
        measured = phases(clients) if phases else [closed_loop(clients, self.budget)]
        after = counters(session) if self.traced else None
        self.results.put("peak_rss_mb", peak_rss_mb())
        self.check(measured, oracle)
        self.summarise(measured[0], catalog_rows)
        if self.traced:
            self.summarise_layers(
                measured, before, after, rows_per_container(photo.data)
            )
            if lookup is None:
                lookup = [photo.data[: config.LOOKUP_PROBE_ROWS]]
            self.probe(session, measured, photo, lookup, stores)
        return measured

    # -- results --------------------------------------------------------

    def check(self, phases, oracle):
        """Verify every measured sample; fold failures into the run."""
        for phase in phases:
            self.attempted += len(phase.samples)
            self.failed += verify(phase.samples, oracle)
            self.errors.extend(
                s.error for s in phase.samples if s.error is not None
            )
            self.sample_rows.extend(
                [s.op_id, s.op.shape, s.client, s.due is not None, s.start - self.started,
                 s.latency * 1e3, bool(s.correct)]
                for s in phase.samples
            )
        self.results.put(
            "failed_share", self.failed / max(1, self.attempted), self.attempted
        )

    def summarise(self, phase, catalog_rows=None):
        """End-to-end numbers of a closed-loop phase."""
        raw = Results()
        ok = [s for s in phase.samples if s.error is None]
        correct = sum(1 for s in phase.samples if s.correct)
        raw.put("ops_per_s", correct / phase.wall, samples=len(phase.samples))
        queries = [s for s in ok if s.op.selects]
        latencies = [s.latency for s in queries]
        raw.put_quantile_ms("latency_ms_p50", latencies, 0.5)
        raw.put_quantile_ms("latency_ms_p90", latencies, 0.9)
        raw.put_quantile_ms("first_row_ms_p50", [s.first_row for s in queries], 0.5)
        whole = [s for s in queries if s.op.whole_catalog]
        if catalog_rows is not None and whole:
            raw.put(
                "scan_rows_per_s",
                catalog_rows * len(whole) / sum(s.latency for s in whole),
                samples=len(whole),
            )
        loads = [s for s in ok if s.op.load_chunk is not None]
        if loads:
            raw.put(
                "load_rows_per_s",
                sum(s.rows for s in loads) / sum(s.latency for s in loads),
                samples=len(loads),
            )
        self.put_normalised(raw, phase.speed)
        by_shape = defaultdict(list)
        for s in ok:
            by_shape[s.op.shape].append(s)
        self.per_shape = {}
        for shape, members in sorted(by_shape.items()):
            entry = {
                "ops": len(members),
                "latency_ms_p50": quantile([s.latency for s in members], 0.5) * 1e3,
            }
            if self.traced and members[0].op.selects:
                entry["shards_pruned_per_op"] = sum(
                    s.layer["shards_pruned"] for s in members
                ) / len(members)
            self.per_shape[shape] = entry

    def put_normalised(self, raw, speed):
        """Record a phase's measurements as taken (``self.raw``) and
        normalised to the reference machine speed (``self.results``):
        times divided by the phase's speed factor, rates multiplied."""
        self.speeds.append(speed)
        for name, entry in raw.values.items():
            self.raw.values[name] = entry
            scale = 1.0 / speed if entry["unit"] == "ms" else speed
            self.results.put(name, entry["value"] * scale, entry.get("samples"))

    def summarise_layers(self, phases, before, after, rows_per_container):
        """Per-layer numbers from the traced samples and counter deltas."""
        put = self.layers.put
        put_ms = self.layers.put_quantile_ms
        samples = [s for p in phases for s in p.samples if s.error is None]
        wall = sum(p.wall for p in phases)
        queries = [s for s in samples if s.op.selects]
        layers = [s.layer for s in queries]
        n = max(1, len(queries))

        executed = [(s, s.layer["exec_s"]) for s in queries if s.layer["exec_s"]]
        put_ms("query.exec_ms_p50", [e for _, e in executed], 0.5)
        put_ms(
            "session.submit_overhead_ms_p50",
            [max(0.0, (s.end - s.start) - e) for s, e in executed],
            0.5,
        )
        put_ms(
            "session.queue_wait_ms_p50",
            [l["queue_wait_s"] for l in layers if l["queue_wait_s"] is not None],
            0.5,
        )
        put("query.predicate_evals_per_op", sum(l["predicate_evals"] for l in layers) / n, n)
        put("query.batches_per_op", sum(l["batches"] for l in layers) / n, n)
        put("query.peak_buffered_rows", max((l["peak_buffered_rows"] for l in layers), default=0))
        delivered = sum(l["containers_delivered"] for l in layers)
        returned = sum(s.rows for s in queries)
        put(
            "query.rows_examined_per_row_returned",
            delivered * rows_per_container / max(1, returned),
            n,
        )
        put("machines.containers_skipped_per_op", sum(l["containers_skipped"] for l in layers) / n, n)
        shares = [
            l["containers_delivered"] / (l["containers_delivered"] + l["containers_skipped"])
            for l in layers
            if l["containers_delivered"] + l["containers_skipped"]
        ]
        put("machines.containers_delivered_share", quantile(shares, 0.5) if shares else 0.0, len(shares))
        utilisations = [l["workers"]["utilization"] for l in layers if l["workers"]]
        if utilisations:
            put("machines.worker_utilization", float(np.mean(utilisations)), len(utilisations))

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        swept = delta("sweep.containers_swept")
        put("machines.sweep_containers_per_s", swept / wall)
        put("machines.sweep_sharing_factor", delta("sweep.deliveries") / swept if swept else 1.0)
        hits, misses = delta("buffer_pool.hits"), delta("buffer_pool.misses")
        put("storage.pool_hit_rate", hits / (hits + misses) if hits + misses else 0.0)
        put("storage.pool_evictions", delta("buffer_pool.evictions"))
        put("storage.bytes_read", delta("buffer_pool.bytes_read"))

        put("net.round_trips_per_op", sum(l.get("round_trips", 0) for l in layers) / n, n)
        put("net.retries", delta("client:net.retries"))
        put("net.failovers", sum(l["failovers"] for l in layers))
        server_bound = [
            (s.end - s.start) - max(s.layer["server_s"])
            for s in queries
            if s.layer["server_s"]
        ]
        put_ms("net.client_overhead_ms_p50", server_bound, 0.5)

        cache_hits, cache_misses = delta("cache.hits"), delta("cache.misses")
        lookups = cache_hits + cache_misses
        put("service.cache_hit_rate", cache_hits / lookups if lookups else 0.0, lookups)
        put("service.cache_evictions", delta("cache.evictions"))
        put("service.cache_invalidations", delta("cache.invalidations"))
        attempted = [s for p in phases for s in p.samples]
        put("service.refused", sum(1 for s in attempted if s.error_class in _REFUSALS))
        if lookups:
            reads = [s for s in queries if s.op.selects[0].into is None]
            put_ms("service.hit_latency_ms_p50", [s.latency for s in reads if s.layer["cache_hit"]], 0.5)
            put_ms("service.miss_latency_ms_p50", [s.latency for s in reads if not s.layer["cache_hit"]], 0.5)
        put_ms(
            "service.mydb_write_ms_p50",
            [s.latency for s in queries if s.op.selects[0].into is not None],
            0.5,
        )

        put("distributed.shards_touched_per_op", sum(l["shards_touched"] for l in layers) / n, n)
        put("distributed.shards_pruned_per_op", sum(l["shards_pruned"] for l in layers) / n, n)

        loads = [s for s in samples if s.op.load_chunk is not None]
        if loads:
            put_ms("storage.load_chunk_ms_p50", [s.latency for s in loads], 0.5)
            rows = sum(s.rows for s in loads)
            put(
                "storage.containers_touched_per_krow",
                1e3 * sum(s.layer["containers_touched"] for s in loads) / rows,
                len(loads),
            )
            put(
                "storage.invalidations_per_chunk",
                sum(s.layer["pool_invalidations"] for s in loads) / len(loads),
                len(loads),
            )

        put("bench.speed_factor", float(np.mean(self.speeds)))

        total = self_time_by_layer(self.tracer.spans)
        whole = sum(total.values())
        if whole > 0:
            self.self_time_share = {
                layer: seconds / whole for layer, seconds in sorted(total.items())
            }

    def probe(self, session, phases, photo, lookup, stores):
        """The per-layer probes of a traced run."""
        answered = [
            s for p in phases for s in p.samples if s.error is None and s.op.selects
        ]
        queries = [s for s in answered if s.op.selects[0].into is None]
        probed = queries[: config.PROBE_OPS]
        probes.probe_queries(self.layers, self.tracer, session, probed)
        data = photo.data
        xyz = np.stack([data["cx"], data["cy"], data["cz"]], axis=-1)
        probes.probe_regions(
            self.layers, self.tracer, probed, xyz, container_ids(data), stores
        )
        probes.probe_lookup(self.layers, self.tracer, lookup)
        # The wire codec works on the workload's own largest answer,
        # fetched once more.
        largest = max(queries, key=lambda s: s.rows)
        probes.probe_wire(
            self.layers, self.tracer, session.execute(largest.op.text).to_table()
        )


def container_ids(data):
    """Container (depth ``HTM_DEPTH`` trixel) id of every catalog row."""
    return data["htmid"] >> (2 * (config.CATALOG_INDEX_DEPTH - config.HTM_DEPTH))


def rows_per_container(data):
    return len(data) / len(np.unique(container_ids(data)))


def counters(session):
    """Numeric registry counters of the serving process(es), summed, plus
    this process's own ``net.retries`` (retries happen client-side)."""
    from repro.obs.metrics import registry

    stats = session.server_stats()
    total = defaultdict(float)
    for snapshot in stats if isinstance(stats, list) else [stats]:
        for name, value in snapshot.get("metrics", snapshot).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total[name] += value
    total["client:net.retries"] = registry().snapshot().get("net.retries", 0)
    return total


def peak_rss_mb():
    """Peak resident set of this process plus its live child processes."""

    def high_water_kb(pid):
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    pids = [os.getpid()] + [c.pid for c in multiprocessing.active_children()]
    return sum(high_water_kb(pid) for pid in pids) / 1024.0


def _build_stores(run, photo, pool_share=None):
    """Photo and tag stores over the whole catalog (timed).  With
    ``pool_share`` each store reads through a ``BufferPool`` whose budget
    is that share of the store's bytes (a store packs exactly its
    table's bytes, so the budget is known before the store exists)."""
    from repro import ContainerStore
    from repro.catalog import make_tag_table
    from repro.storage.buffer import BufferPool

    tables = {"photo": photo, "tag": make_tag_table(photo)}
    pools = {
        name: None if pool_share is None else BufferPool(int(pool_share * t.nbytes()))
        for name, t in tables.items()
    }
    started = time.perf_counter()
    stores = {
        name: ContainerStore.from_table(table, config.HTM_DEPTH, buffer_pool=pools[name])
        for name, table in tables.items()
    }
    spent = time.perf_counter() - started
    run.put_build(sum(len(t) for t in tables.values()), spent, _bytes_per_row(stores["photo"]))
    return stores


def _bytes_per_row(store):
    return store.total_bytes() / store.total_objects()


# ----------------------------------------------------------------------
# scan_sweep / cone_search: one local client over whole-catalog stores
# ----------------------------------------------------------------------


def _run_local(run, ops, warm_laps, pool_share=None):
    from repro import Archive

    photo = run.load_catalog()
    stores = _build_stores(run, photo, pool_share)
    with Archive.connect(stores=stores) as session:
        run.measure(
            session,
            [(run.query_client(session), ops)],
            warm_laps,
            Oracle(photo.data),
            photo,
            catalog_rows=len(photo),
            stores=[stores["photo"]],
        )


def run_scan_sweep(run):
    _run_local(run, gen.scan_sweep(run.rng), warm_laps=6)


def run_cone_search(run):
    _run_local(
        run,
        gen.cone_search(run.rng),
        warm_laps=20,
        pool_share=config.POOL_BUDGET_SHARE,
    )


# ----------------------------------------------------------------------
# remote_tenants
# ----------------------------------------------------------------------


def _result_bytes(op, oracle):
    """Bytes of an op's result, from the oracle's row count."""
    select = op.selects[0]
    if select.aggregate is not None:
        return 64
    row = sum(oracle.data.dtype[name].itemsize for name in select.columns)
    return row * len(oracle.select_rows(select))


def run_remote_tenants(run):
    from repro import Archive

    photo = run.load_catalog()
    oracle = Oracle(photo.data)
    texts = gen.remote_texts(run.rng)
    cache_bytes = config.CACHE_BUDGET_SHARE * sum(_result_bytes(op, oracle) for op in texts)
    with ExitStack() as stack:
        server = stack.enter_context(ChildServer(run.scale, cache_bytes))
        run.children.append({"pid": server.info["pid"], "port": server.info["port"]})
        run.put_build(
            server.info["build_rows"], server.info["build_s"], server.info["bytes_per_row"]
        )
        clients = []
        sessions = []
        for index, (user, token) in enumerate(config.TENANTS.items()):
            session = stack.enter_context(
                Archive.connect(f"archive://{user}:{token}@{server.host_port}")
            )
            sessions.append(session)
            stream = gen.remote_tenant(
                np.random.default_rng([run.seed, 100 + index]), texts
            )
            clients.append((run.query_client(session, user), stream))

        def phases(clients):
            share = config.REMOTE_CLOSED_SHARE
            closed = closed_loop(clients, run.budget.portion(share))
            arrivals = _arrivals(run.rng, run.budget.portion(1.0 - share))
            return [closed, open_loop(clients, arrivals)]

        _closed, opened = run.measure(
            sessions[0], clients, config.MYDB_TABLES + 10, oracle, photo, phases=phases
        )
        ok = [s.latency for s in opened.samples if s.error is None]
        raw = Results()
        raw.put_quantile_ms("open_latency_ms_p50", ok, 0.5)
        raw.put_quantile_ms("open_latency_ms_p90", ok, 0.9)
        run.put_normalised(raw, opened.speed)
        if run.traced:
            run.layers.put_quantile_ms(
                "bench.generator_late_ms_p90",
                [s.layer["late_s"] for s in opened.samples],
                0.9,
            )


def _arrivals(rng, budget):
    """Poisson arrival offsets at ``RATE_QPS`` filling the phase (or
    exactly ``budget.ops`` arrivals)."""
    count = budget.ops
    if count is None:
        count = max(1, int(round(config.RATE_QPS * budget.seconds)))
    return np.cumsum(rng.exponential(1.0 / config.RATE_QPS, size=count)).tolist()


# ----------------------------------------------------------------------
# cluster_gather
# ----------------------------------------------------------------------


def run_cluster_gather(run):
    from repro import Archive, DistributedArchive
    from repro.catalog import make_tag_table

    photo = run.load_catalog()
    tags = make_tag_table(photo)
    started = time.perf_counter()
    archive = DistributedArchive.from_table(
        photo, depth=config.HTM_DEPTH, n_servers=config.SHARDS
    )
    archive.attach_source("tag", tags)
    spent = time.perf_counter() - started
    run.put_build(
        2 * len(photo),
        spent,
        sum(s.total_bytes() for s in archive.servers) / archive.total_objects(),
    )
    # The shard processes start (and build their stores side by side)
    # unpinned; then they and the coordinator go onto the measured CPU.
    pin(everywhere=True)
    with Archive.connect(archive=archive, process_shards=True) as session:
        for process in multiprocessing.active_children():
            pin(process.pid)
        pin()
        (phase,) = run.measure(
            session,
            [(run.query_client(session), gen.cluster_gather(run.rng))],
            8,
            Oracle(photo.data),
            photo,
            catalog_rows=len(photo),
        )
        if run.traced:
            _summarise_shards(run, phase)


def _summarise_shards(run, phase):
    """Gather self time and shard skew from the server-reported times."""
    gather, skew = [], []
    for s in phase.samples:
        times = s.layer.get("server_s") if s.error is None else None
        if not times:
            continue
        gather.append((s.end - s.start) - max(times))
        if len(times) > 1:
            skew.append(max(times) / (sum(times) / len(times)))
    run.layers.put_quantile_ms("distributed.gather_self_ms_p50", gather, 0.5)
    if skew:
        run.layers.put("distributed.shard_skew", quantile(skew, 0.5), len(skew))


# ----------------------------------------------------------------------
# ingest_mix
# ----------------------------------------------------------------------


def run_ingest_mix(run):
    from repro import Archive, ChunkLoader, ContainerStore
    from repro.geometry import vector_to_radec

    photo = run.load_catalog()
    data = photo.data
    base_rows = np.arange(0, len(data), 2)
    rest = np.arange(1, len(data), 2)
    coarse = data["htmid"][rest] >> (
        2 * (config.CATALOG_INDEX_DEPTH - config.CHUNK_SORT_DEPTH)
    )
    rest = rest[np.argsort(coarse, kind="stable")]
    chunks = np.array_split(rest, config.INGEST_CHUNKS)
    # The seed picks the order the chunks arrive in.
    chunks = [chunks[i] for i in run.rng.permutation(len(chunks))]
    centres = []
    for rows in chunks:
        mean = np.array([data[c][rows].mean() for c in ("cx", "cy", "cz")])
        ra, dec = vector_to_radec(mean / np.linalg.norm(mean))
        centres.append((float(ra), float(dec)))
    tables = [photo.take(rows) for rows in chunks]

    base = photo.take(base_rows)
    started = time.perf_counter()
    store = ContainerStore.from_table(base, config.HTM_DEPTH)
    run.put_build(len(base), time.perf_counter() - started, _bytes_per_row(store))
    loader = ChunkLoader(store)
    oracle = Oracle(data, chunk_rows=(base_rows, chunks))
    ops = gen.ingest_mix(run.rng, centres)

    with Archive.connect(stores={"photo": store}, cache=True) as session:
        query = run.query_client(session)

        def run_one(op, due=None):
            if op.load_chunk is None:
                return query(op)
            return run_load(
                loader, op, tables[op.load_chunk], next(run.op_ids), run.tracer
            )

        run.measure(
            session,
            [(run_one, ops)],
            4,
            oracle,
            photo,
            lookup=[table.data for table in tables],
            stores=[store],
        )


RUNNERS = {
    "scan_sweep": run_scan_sweep,
    "cone_search": run_cone_search,
    "remote_tenants": run_remote_tenants,
    "cluster_gather": run_cluster_gather,
    "ingest_mix": run_ingest_mix,
}
