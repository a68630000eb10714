"""The metric catalogue: every name the benchmark prints, with its unit,
direction, regression bound, the workloads it is measured on and the
end-to-end metric it is expected to move.

``BENCHMARK.json`` can list a metric only once for all workloads, so it
carries the metrics measured on *every* workload; the catalogue below is
the superset (``workloads`` names the ones a metric is limited to).
``bench/compare.py`` gates on every end-to-end metric here, including
the workload-specific ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

SPATIAL = ("cone_search", "remote_tenants", "cluster_gather", "ingest_mix")
LOCAL_STORE = ("scan_sweep", "cone_search", "ingest_mix")
OVER_THE_WIRE = ("remote_tenants", "cluster_gather")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: share of the parent's median by which it may worsen (end-to-end
    #: only; ``None``: reported but not gated)
    bound: float | None = None
    #: workloads it is measured on (``None``: all five)
    workloads: tuple | None = None
    #: how it is measured / which end-to-end metric it should move, where
    moves: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           moves="process start to the first timed op: imports, catalog load, "
                 "stores/servers, warm-up lap (catalog generation excluded); at "
                 "the reference speed, from kernel runs made while setting up"),
    Metric("ops_per_s", "1/s", "higher", 0.25,
           moves="correct ops / wall of the closed-loop phase"),
    Metric("latency_ms_p50", "ms", "lower", 0.25,
           moves="submit() to to_table() returning, closed-loop queries"),
    # Reported, not gated (bound None): a 10 s run gives 30-170 samples
    # and the percentile sits on a step between op shapes; its spread over
    # ten seeds reached 0.9.  BENCHMARK.json has no place for an ungated
    # end-to-end metric, so it lists this one under per_layer.
    Metric("latency_ms_p90", "ms", "lower", None,
           moves="same samples as latency_ms_p50"),
    Metric("first_row_ms_p50", "ms", "lower", 0.25,
           moves="submit() to the first batch at the client"),
    Metric("peak_rss_mb", "MB", "lower", 0.15,
           moves="VmHWM of the workload process plus its live children"),
    Metric("scan_rows_per_s", "rows/s", "higher", 0.25,
           workloads=("scan_sweep", "cluster_gather"),
           moves="catalog rows swept / time in whole-catalog ops"),
    Metric("load_rows_per_s", "rows/s", "higher", 0.25, workloads=("ingest_mix",),
           moves="rows loaded / time in ChunkLoader.load_chunk"),
    Metric("open_latency_ms_p50", "ms", "lower", 0.25, workloads=("remote_tenants",),
           moves="phase B, from each request's due time"),
    Metric("open_latency_ms_p90", "ms", "lower", 0.25, workloads=("remote_tenants",),
           moves="phase B, from each request's due time"),
    Metric("failed_share", "share", "lower", 0.0,
           moves="(failed + refused + wrong or stale answers) / attempted; 0 on the seed"),
)

PER_LAYER = (
    # query.parser
    Metric("query.parse_ms_p50", "ms", "lower",
           moves="parse_query(text) -> latency_ms_p50 on cone_search, remote_tenants"),
    # query.optimizer
    Metric("query.plan_ms_p50", "ms", "lower",
           moves="executor.prepare(text) -> latency_ms_p50, ops_per_s on cone_search"),
    Metric("query.rows_examined_per_row_returned", "ratio", "lower",
           moves="containers delivered x mean rows per container / rows returned "
                 "-> latency_ms_p50 on cone_search; flat on scan_sweep"),
    # htm
    Metric("htm.cover_ms_p50", "ms", "lower", workloads=SPATIAL,
           moves="cover_region(op region) -> latency_ms_p50 on cone_search"),
    Metric("htm.cover_ranges_mean", "count", "lower", workloads=SPATIAL,
           moves="intervals in the cover's candidate RangeSet"),
    Metric("htm.lookup_rows_per_s", "rows/s", "higher",
           moves="lookup_ids over catalog rows (each chunk on ingest_mix) "
                 "-> load_rows_per_s on ingest_mix, setup_s everywhere"),
    # geometry
    Metric("geometry.region_test_rows_per_s", "rows/s", "higher", workloads=SPATIAL,
           moves="Region.contains over the rows of partial trixels "
                 "-> latency_ms_p50 on cone_search"),
    # storage
    Metric("storage.build_rows_per_s", "rows/s", "higher",
           moves="ContainerStore.from_table (DistributedArchive.from_table on "
                 "cluster_gather) -> setup_s"),
    Metric("storage.bytes_per_row", "B/row", "lower",
           moves="total_bytes / total_objects -> peak_rss_mb"),
    Metric("storage.pool_hit_rate", "share", "higher",
           moves="buffer_pool hits / accesses over the measured phase; moves "
                 "nothing on the seed (a miss costs what a hit costs)"),
    Metric("storage.pool_evictions", "count", "lower",
           moves="same; the columnar-storage item is gated on it"),
    Metric("storage.bytes_read", "B", "lower",
           moves="same -> scan_rows_per_s on scan_sweep once a miss is a decode"),
    Metric("storage.load_chunk_ms_p50", "ms", "lower", workloads=("ingest_mix",),
           moves="ChunkLoader.load_chunk -> load_rows_per_s"),
    Metric("storage.containers_touched_per_krow", "count", "lower",
           workloads=("ingest_mix",), moves="LoadReport -> load_rows_per_s"),
    Metric("storage.invalidations_per_chunk", "count", "lower",
           workloads=("ingest_mix",),
           moves="buffer-pool invalidations per load -> latency_ms_p50 on ingest_mix"),
    # machines
    Metric("machines.sweep_containers_per_s", "1/s", "higher",
           moves="sweep containers_swept / wall -> scan_rows_per_s on scan_sweep"),
    Metric("machines.sweep_sharing_factor", "ratio", "higher",
           moves="sweep deliveries / containers swept"),
    Metric("machines.sweep_skip_ms_p50", "ms", "lower", workloads=LOCAL_STORE,
           moves="one manually stepped SweepScanner revolution with the op's "
                 "cover as candidates -> latency_ms_p50, first_row_ms_p50 on "
                 "cone_search"),
    Metric("machines.containers_skipped_per_op", "count", "higher",
           moves="io_report containers_skipped; 0 on scan_sweep"),
    Metric("machines.containers_delivered_share", "share", "lower",
           moves="delivered / (delivered + skipped) at the median op; "
                 "under 2 % on cone_search"),
    Metric("machines.worker_utilization", "share", "higher", workloads=(),
           moves="io_report workers; absent at the default workers=1"),
    # query.qet
    Metric("query.exec_ms_p50", "ms", "lower",
           moves="Cursor.time_to_completion -> scan_rows_per_s, "
                 "first_row_ms_p50 on scan_sweep"),
    Metric("query.predicate_evals_per_op", "count", "lower",
           moves="NodeStats.predicate_evals summed over the tree"),
    Metric("query.batches_per_op", "count", "lower",
           moves="root NodeStats.batches_out"),
    Metric("query.peak_buffered_rows", "count", "lower",
           moves="largest NodeStats.peak_buffered_rows of the phase"),
    # session
    Metric("session.submit_overhead_ms_p50", "ms", "lower",
           moves="client latency - time_to_completion -> latency_ms_p50 on cone_search"),
    Metric("session.queue_wait_ms_p50", "ms", "lower",
           moves="the queue span, or plan end -> execute start for interactive "
                 "jobs -> open_latency_ms_p90 on remote_tenants as load rises"),
    # net
    Metric("net.encode_mb_per_s", "MB/s", "higher",
           moves="table_to_wire on 4096 rows of the workload's results "
                 "-> scan_rows_per_s on cluster_gather"),
    Metric("net.decode_mb_per_s", "MB/s", "higher",
           moves="table_from_wire on the same frame"),
    Metric("net.round_trips_per_op", "count", "lower",
           moves="executor telemetry -> latency_ms_p50, ops_per_s on remote_tenants"),
    Metric("net.client_overhead_ms_p50", "ms", "lower", workloads=OVER_THE_WIRE,
           moves="client latency - server-reported job time: wall during "
                 "which nobody computes -> latency_ms_p50 on remote_tenants"),
    Metric("net.retries", "count", "lower", moves="must be 0"),
    Metric("net.failovers", "count", "lower", moves="must be 0"),
    # service
    Metric("service.cache_hit_rate", "share", "higher",
           moves="server_stats cache hits / lookups -> ops_per_s, "
                 "open_latency_ms_p50 on remote_tenants"),
    Metric("service.cache_evictions", "count", "lower", moves="server_stats"),
    Metric("service.cache_invalidations", "count", "lower",
           moves="server_stats -> latency_ms_p50 on ingest_mix"),
    Metric("service.refused", "count", "lower",
           moves="ops refused by auth, quota or admission"),
    Metric("service.hit_latency_ms_p50", "ms", "lower",
           workloads=("remote_tenants",), moves="client latency of cache hits"),
    Metric("service.miss_latency_ms_p50", "ms", "lower",
           workloads=("remote_tenants", "ingest_mix"),
           moves="client latency of cacheable misses"),
    Metric("service.mydb_write_ms_p50", "ms", "lower", workloads=("remote_tenants",),
           moves="client latency of SELECT ... INTO mydb.t*"),
    # distributed
    Metric("distributed.shards_touched_per_op", "count", "lower",
           moves="ShardFanoutReport -> latency_ms_p50 on cluster_gather"),
    Metric("distributed.shards_pruned_per_op", "count", "higher",
           moves="ShardFanoutReport; > 0 on the spatial half, 0 on the rest"),
    Metric("distributed.gather_self_ms_p50", "ms", "lower",
           workloads=("cluster_gather",),
           moves="op latency - slowest shard's reported time"),
    Metric("distributed.shard_skew", "ratio", "lower", workloads=("cluster_gather",),
           moves="slowest / mean shard time; bounds any per-shard speed-up"),
    # obs / harness
    Metric("obs.trace_overhead_share", "share", "lower", workloads=(),
           moves="traced vs untraced latency_ms_p50; needs both runs, so only "
                 "the all-workloads command prints it"),
    Metric("bench.speed_factor", "x", "lower",
           moves="reference kernel time / its nominal time (bench/reference.py); "
                 "per-layer times are as the clock gave them: divide by this to "
                 "set them beside the end-to-end times"),
    Metric("bench.generator_late_ms_p90", "ms", "lower", workloads=("remote_tenants",),
           moves="open-loop send lateness"),
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def contract():
    """``BENCHMARK.json`` as a dict (the driver's contract)."""
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def quantile(values, q):
    """The ``q`` quantile (0-1) of ``values`` (linear interpolation)."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


class Results:
    """Named measurements of one run: ``name -> {value, unit, samples}``."""

    def __init__(self):
        self.values = {}

    def put(self, name, value, samples=None):
        entry = {"value": float(value), "unit": UNITS[name]}
        if samples is not None:
            entry["samples"] = int(samples)
        self.values[name] = entry

    def put_quantile_ms(self, name, seconds, q):
        """Record a latency quantile when there is at least one sample."""
        if len(seconds):
            self.put(name, quantile(seconds, q) * 1e3, samples=len(seconds))

    def lines(self):
        """One printable line per metric, in insertion order."""
        for name, entry in self.values.items():
            samples = f"  (n={entry['samples']})" if "samples" in entry else ""
            yield f"  {name:<42} {entry['value']:>16.6g} {entry['unit']}{samples}"
