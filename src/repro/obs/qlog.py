"""The query log: one JSON line per completed query.

The SkyServer logged every submission — elapsed time, CPU, row counts —
and its operators mined that log to plan capacity and spot runaway
queries.  :class:`QueryLog` is that tradition for the reproduction: the
session calls :meth:`observe` once per job at a terminal transition
(DONE / FAILED / CANCELLED) and the log appends one JSON object with the
trace id, latencies, row counts, and an ``io`` block: every counter the
:class:`~repro.query.qet.NodeStats` declaration sums (container reads,
pool hits, skips, predicate passes ...), totalled over the job's nodes,
plus ``attempts`` / ``failovers`` from ``Job.metrics()`` for jobs with
remote leaves.

A ``slow_ms`` threshold turns it into a slow-query log: jobs finishing
faster are skipped (failures and cancellations always log — those are
exactly the entries an operator greps for).
"""

from __future__ import annotations

import io
import json
import threading
import time

from repro.query.qet import NodeStats

__all__ = ["QueryLog"]


class QueryLog:
    """JSON-lines query log with an optional slow-query threshold.

    Parameters
    ----------
    path:
        File to append JSON lines to.  Mutually exclusive with ``stream``.
    stream:
        An open text stream to write to instead (e.g. ``sys.stderr`` or
        an ``io.StringIO`` in tests).  The log never closes it.
    slow_ms:
        Only log jobs whose ``time_to_completion`` is at least this many
        milliseconds.  ``0.0`` (default) logs everything.  Failed and
        cancelled jobs log regardless of the threshold.
    """

    def __init__(self, path=None, stream=None, slow_ms=0.0):
        if path is not None and stream is not None:
            raise ValueError("pass path or stream, not both")
        if slow_ms < 0:
            raise ValueError("slow_ms must be non-negative")
        self._path = None if path is None else str(path)
        self._stream = stream
        self._owns_stream = False
        if self._path is not None:
            self._stream = io.open(self._path, "a", encoding="utf-8")
            self._owns_stream = True
        self.slow_ms = slow_ms
        self._lock = threading.Lock()
        self.entries_written = 0
        self.entries_skipped = 0

    # ------------------------------------------------------------------

    def observe(self, job):
        """Log one terminal job (idempotence is the caller's concern)."""
        record = self.record_for(job)
        state = record.get("state")
        completion_ms = record.get("time_to_completion_ms")
        slow_enough = completion_ms is None or completion_ms >= self.slow_ms
        if state == "DONE" and not slow_enough:
            with self._lock:
                self.entries_skipped += 1
            return None
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            if self._stream is not None:
                self._stream.write(line + "\n")
                self._stream.flush()
            self.entries_written += 1
        return record

    @staticmethod
    def record_for(job):
        """The JSON-safe log record for a job (also used by tests)."""
        ttfr = job.time_to_first_row
        ttc = job.time_to_completion
        record = {
            "ts": time.time(),
            "trace_id": getattr(job, "trace_id", None),
            "job_id": job.job_id,
            "user": getattr(job, "user", None),
            "query_class": getattr(job, "query_class", None),
            "state": job.state.name,
            "text": getattr(job, "text", None),
            "rows": job.rows,
            "time_to_first_row_ms": None if ttfr is None else round(ttfr * 1e3, 3),
            "time_to_completion_ms": None if ttc is None else round(ttc * 1e3, 3),
            "cache_hit": bool(getattr(job, "cache_hit", False)),
        }
        error = getattr(job, "error", None)
        if error is not None:
            record["error"] = f"{type(error).__name__}: {error}"
        try:
            total = NodeStats().fold(*job.node_stats().values())
            metrics = job.metrics()
        except Exception:
            return record
        # The job's additive totals, every one the declaration knows.
        record["io"] = {
            name: getattr(total, name)
            for name, how in NodeStats.COUNTERS.items()
            if how == "sum"
        }
        # Resilience telemetry, remote jobs only: how many submissions
        # and replica failovers the job's remote leaves needed.
        if "net.attempts" in metrics:
            record["io"]["attempts"] = metrics["net.attempts"]
            record["io"]["failovers"] = metrics["net.failovers"]
        return record

    # ------------------------------------------------------------------

    def close(self):
        with self._lock:
            if self._owns_stream and self._stream is not None:
                self._stream.close()
            self._stream = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __repr__(self):
        target = self._path or (
            type(self._stream).__name__ if self._stream is not None else "closed"
        )
        return (
            f"QueryLog({target}, slow_ms={self.slow_ms}, "
            f"written={self.entries_written})"
        )
