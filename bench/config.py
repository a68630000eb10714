"""Fixed inputs of the benchmark.

Nothing here depends on ``--seed``: the seed drives only the workload
generators (query parameters, op order, arrival times).  Later issues
refer to these names, so change them only in a ``benchmark`` PR.
"""

from __future__ import annotations

WORKLOADS = (
    "scan_sweep",
    "cone_search",
    "remote_tenants",
    "cluster_gather",
    "ingest_mix",
)

#: The catalog never changes (its seed is not the workload seed).
CATALOG = {
    "n_galaxies": 60000,
    "n_stars": 36000,
    "n_quasars": 1800,
    "seed": 20020101,
}
#: HTM depth of every container store.
HTM_DEPTH = 6
#: HTM depth of the catalog's stored ``htmid`` column (the simulator's
#: default); the oracle derives container ids from it with a shift.
CATALOG_INDEX_DEPTH = 10

#: ``cone_search``: each store's BufferPool holds this share of the
#: store's bytes, so the working set is larger than the program's cache.
#: (The issue asked for a quarter; the hot fields' cones cover ~8 % of the
#: sky and even a 15 s run reads ~8 MB, so a quarter of the 82 MB store never
#: evicts.  At 1/32 the pool holds 2.6 MB and every run evicts.)
POOL_BUDGET_SHARE = 1.0 / 32.0
#: ``cone_search``: zipf-ranked hot fields and the share of centres
#: drawn from them (the rest are uniform on the sphere).  Where the hot
#: fields lie is fixed like the catalog (popular sky is a property of the
#: archive's traffic, and a field's cost depends on how dense the sky is
#: there); the seed picks which field an op hits, and how.
HOT_FIELDS = 16
HOT_FIELD_SEED = 20020101
HOT_SHARE = 0.8
CONE_RADIUS_DEG = (0.05, 8.0)

#: ``remote_tenants``: query texts, their popularity, the result cache
#: budget as a share of the summed result bytes of the texts, the write
#: and read-back shares, and the open-loop arrival rate of phase B
#: (about half of phase A's ``ops_per_s`` on the seed commit).
REMOTE_TEXTS = 48
ZIPF_S = 1.1
CACHE_BUDGET_SHARE = 0.5
MYDB_TABLES = 4
MYDB_WRITE_SHARE = 0.1
MYDB_READ_SHARE = 0.1
TENANTS = {"tenant0": "token-0", "tenant1": "token-1"}
RATE_QPS = 2.5
#: share of ``--seconds`` spent in the closed-loop phase A
REMOTE_CLOSED_SHARE = 0.6

#: ``cluster_gather``: one shard process per core.
SHARDS = 2

#: ``ingest_mix``: the store starts with every second catalog row; the
#: rest arrives in this many spatially coherent chunks (sorted by HTM id
#: at ``CHUNK_SORT_DEPTH``).
INGEST_CHUNKS = 40
CHUNK_SORT_DEPTH = 3

#: CPU placement: every process of a run (the workload process with its
#: client threads, the child archive server, the shard processes) is
#: pinned to this one CPU (an index into the CPUs available) while it is
#: measured.  The box is a 2-vCPU VM whose vCPUs wake each other slowly,
#: and at a cost that changes by the minute: left to float, the GIL-bound
#: program's threads hop between the vCPUs and the same query costs
#: 1.0-1.6x as much for minutes at a time; one process per vCPU is worse
#: (``cluster_gather`` ops_per_s 7.4-12.2 over seven runs, against
#: 8.7-10.4 on one CPU).  On one CPU no wake-up crosses vCPUs.  What it
#: costs: no workload can show two processes running at once.
MEASURE_CPU = -1

#: Rows of the workload's own results used for the wire codec probe.
WIRE_PROBE_ROWS = 4096
#: Catalog rows used for the ``lookup_ids`` probe.
LOOKUP_PROBE_ROWS = 20000
#: Ops probed per layer in a traced run (the first of the measured ops).
PROBE_OPS = 24

#: A workload that runs longer than this is killed with its children,
#: so a hang ends as a failed run and never as an orphan process.
WORKLOAD_GUARD_S = 170.0
#: Seconds a child server gets to report ready, and to exit.
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 10.0
