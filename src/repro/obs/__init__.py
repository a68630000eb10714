"""Unified observability: tracing, metrics, query log, job reports.

One subsystem answering the two questions the SkyServer's operators
asked of their logs — *where did this query's time go?* (per-query span
trees, :mod:`repro.obs.trace`) and *what is this archive doing?* (the
process-wide metrics registry, :mod:`repro.obs.metrics`) — plus the
JSON-lines query log (:mod:`repro.obs.qlog`) and the per-job metric
snapshot behind ``Job.metrics()`` / ``Job.io_report()``
(:mod:`repro.obs.report`).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    derive_rates,
    merge_metrics,
    registry,
)
from repro.obs.qlog import QueryLog
from repro.obs.report import job_snapshot
from repro.obs.trace import Span, Trace, assemble_job_trace, mint_trace_id

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_metrics",
    "derive_rates",
    "registry",
    "QueryLog",
    "job_snapshot",
    "Span",
    "Trace",
    "assemble_job_trace",
    "mint_trace_id",
]
