"""A job's telemetry: one flat dict in registry names, and its views.

:func:`job_snapshot` is the one place a job's numbers are put together:
its nodes' :class:`~repro.query.qet.NodeStats` folded into one record,
plus what the sweeps, buffer pools and result caches it rode counted
(:func:`shared_metrics`), under the metrics registry's names and
combined by the registry's own :func:`~repro.obs.metrics.merge_metrics`
and :func:`~repro.obs.metrics.derive_rates`.  ``Job.metrics()`` returns
that dict, ``Job.io_report()`` is :func:`io_report`, a view of it under
the report's own keys, and the ``raw`` entry of the wire's ``done``
frame is the server job's :func:`shared_metrics`, which the client
job's snapshot merges like any local store's.
"""

from __future__ import annotations

from repro.obs.metrics import derive_rates, merge_metrics
from repro.query.qet import NodeStats

__all__ = ["job_snapshot", "shared_metrics", "io_report"]

#: what a job reports of the sweeps and pools it rode, out of everything
#: those publish into the registry
_STORE_COUNTERS = (
    "sweep.containers_swept",
    "sweep.deliveries",
    "buffer_pool.hits",
    "buffer_pool.misses",
)


def shared_metrics(job):
    """What the sweeps, pools and caches ``job`` rode have counted
    (store-lifetime counters: see :meth:`Job.metrics`).

    Each distinct local sweep and pool is read once, through the source
    it publishes into the registry; a remote leaf contributes the dict
    its server shipped (this function, run on the server's job); the
    session's result cache adds its counters and whether *this* job was
    a replay.  Rates come later, from the summed counters.
    """
    out = {}
    seen = []
    for node in job.node_stats():
        remote = getattr(node, "remote_io_raw", None)
        if remote is not None:
            # A remote leaf always stands for its server's sweeps and
            # pools: they count zero, not "none ridden", when the served
            # job touched no store (a cache replay).
            merge_metrics(out, dict.fromkeys(_STORE_COUNTERS, 0))
            merge_metrics(out, remote)
        store = getattr(node, "store", None)
        sources = () if store is None else (store.sweeper(), store.buffer_pool)
        for source in sources:
            if source not in seen:
                seen.append(source)
                published = source._published_metrics()
                merge_metrics(
                    out, {n: published[n] for n in _STORE_COUNTERS if n in published}
                )
    service = getattr(getattr(job, "_session", None), "service", None)
    if service is not None and service.cache is not None:
        cache = service.cache._published_metrics()
        merge_metrics(out, {"cache.hit": bool(job.cache_hit), **cache})
    return out


def job_snapshot(job):
    """Registry-style metric snapshot of one job: ``job.*`` totals over
    its nodes, ``net.*`` for jobs with remote leaves only (submissions
    attempted, successful replica failovers), :func:`shared_metrics`,
    and the ratios the registry would derive."""
    nodes = job.node_stats()
    total = NodeStats().fold(*nodes.values())
    out = {"job.rows": job.rows, "job.cache_hit": bool(job.cache_hit)}
    for name in NodeStats.PUBLISHED:
        out[f"job.{name}"] = getattr(total, name)
    attempts = sum(getattr(node, "attempts", 0) for node in nodes)
    if attempts:
        out["net.attempts"] = attempts
        out["net.failovers"] = sum(getattr(node, "failovers", 0) for node in nodes)
    return derive_rates(merge_metrics(out, shared_metrics(job)))


def _named(snap, prefix):
    """The ``prefix``-ed entries of ``snap``, under their bare names."""
    return {
        name[len(prefix):]: value
        for name, value in snap.items()
        if name.startswith(prefix)
    }


def io_report(snap):
    """The ``Job.io_report()`` dict: a view of a :func:`job_snapshot`
    under the report's own keys, so both surfaces show the same numbers."""
    report = {name: snap[f"job.{name}"] for name in NodeStats.PUBLISHED}
    report["sweep_sharing_factor"] = snap.get("sweep.sharing_factor")
    report["buffer_pool_hit_rate"] = snap.get("buffer_pool.hit_rate")
    report["cache"] = _named(snap, "cache.") or None
    report.update(_named(snap, "net."))
    return report
