"""Load generation and timing: closed and open loops over a session.

Latency is the client's wall time from ``session.submit(text)`` to
``cursor.to_table()`` returning; the first batch is taken off the cursor
on the way, which gives the time to the first row at the client.  The
answer is reduced to a digest right after the clock stops and checked
against the oracle after the phase ends.

In a traced run every request also gets a ``request`` span with the
program's own spans (read from the public ``Cursor.trace()``) grafted
under it, and the program's public per-job telemetry is read into
``Sample.layer``.  An untraced run reads none of it.
"""

from __future__ import annotations

import gc
import threading
import time
import traceback
from dataclasses import dataclass, field

from bench.oracle import digest_answer, same_answer
from bench.reference import kernel_seconds, speed_factor


@dataclass
class Budget:
    """How long a phase runs: ``seconds`` of wall time, or exactly ``ops``
    operations when given (the smoke test's repeatable mode)."""

    seconds: float
    ops: int | None = None

    def portion(self, share):
        """The budget of a sub-phase taking ``share`` of this one."""
        return Budget(self.seconds * share, self._ops_share(share))

    def per_client(self, clients):
        """Each client's budget: the same deadline, an equal part of the ops."""
        return Budget(self.seconds, self._ops_share(1.0 / clients))

    def _ops_share(self, share):
        return None if self.ops is None else max(1, int(round(self.ops * share)))

    def spent(self, done, elapsed):
        if self.ops is not None:
            return done >= self.ops
        return elapsed >= self.seconds


@dataclass
class Sample:
    """One attempted operation."""

    op: object
    op_id: int
    client: str = ""
    #: open loop: when the request was due; latency counts from here
    due: float | None = None
    start: float = 0.0
    first: float | None = None
    end: float = 0.0
    rows: int = 0
    digest: tuple | None = None
    error: str | None = None
    #: class name of the exception behind ``error``
    error_class: str | None = None
    correct: bool | None = None
    #: traced runs: the program's per-job telemetry
    layer: dict = field(default_factory=dict)

    @property
    def latency(self):
        return self.end - (self.start if self.due is None else self.due)

    @property
    def first_row(self):
        return None if self.first is None else self.first - self.start


def run_query(session, op, op_id, tracer=None, client="", due=None):
    """Submit one query, drain it, digest the answer."""
    sample = Sample(op=op, op_id=op_id, client=client, due=due)
    telemetry = getattr(session.executor, "telemetry", None)
    trips_before = telemetry.snapshot() if telemetry and tracer else 0
    sample.start = time.perf_counter()
    try:
        job = session.submit(op.text)
        cursor = job.cursor
        first = next(iter(cursor), None)
        sample.first = time.perf_counter()
        rest = cursor.to_table()
        sample.end = time.perf_counter()
    except Exception as exc:
        # The boundary that must keep running: a failed or refused op is
        # a counted failure of the run, with its traceback kept.
        sample.end = time.perf_counter()
        sample.error = traceback.format_exc(limit=6)
        sample.error_class = type(exc).__name__
        return sample
    parts = (first, rest)
    sample.rows = sum(len(p) for p in parts if p is not None)
    sample.digest = digest_answer(op, parts)
    if tracer is not None:
        _observe(sample, job, tracer)
        if telemetry is not None:
            sample.layer["round_trips"] = telemetry.snapshot() - trips_before
    return sample


def run_load(loader, op, chunk, op_id, tracer=None):
    """Load one chunk through ``ChunkLoader.load_chunk``."""
    sample = Sample(op=op, op_id=op_id)
    pool = loader.store.buffer_pool.stats
    invalidations_before = pool.invalidations
    sample.start = time.perf_counter()
    try:
        report = loader.load_chunk(chunk)
        sample.end = time.perf_counter()
    except Exception as exc:
        sample.end = time.perf_counter()
        sample.error = traceback.format_exc(limit=6)
        sample.error_class = type(exc).__name__
        return sample
    sample.first = sample.end
    sample.rows = report.objects_loaded
    sample.correct = report.objects_loaded == len(chunk)
    sample.layer = {
        "containers_touched": report.containers_touched,
        "pool_invalidations": pool.invalidations - invalidations_before,
    }
    if tracer is not None:
        request = tracer.add("storage", "request", sample.start, sample.end, op=op_id)
        tracer.add(
            "storage", "load_chunk", sample.start, sample.end, parent=request, op=op_id
        )
    return sample


def _observe(sample, job, tracer):
    """Traced runs: span the request and read the job's public telemetry."""
    request = tracer.add("session", "request", sample.start, sample.end, op=sample.op_id)
    program = job.trace()
    tracer.graft(program, parent=request, op=sample.op_id)

    by_name = {}
    server_times = []
    for span in program.spans:
        duration = span.duration()
        if duration is None:
            continue
        if span.name == "query" and span.parent_id is not None:
            server_times.append(duration)
        by_name.setdefault(span.name, span)
    queue = by_name.get("queue")
    plan, execute = by_name.get("plan"), by_name.get("execute")
    if queue is not None:
        queue_wait = queue.duration()
    elif plan is not None and execute is not None:
        # Interactive jobs have no queue span: the wait between the end
        # of planning and the start of execution is admission + hand-off.
        queue_wait = max(0.0, execute.started_at - plan.ended_at)
    else:
        queue_wait = None

    stats = list(job.node_stats().values())
    io = job.io_report()
    cache = io.get("cache") or {}
    reports = job.reports
    sample.layer = {
        "exec_s": job.time_to_completion,
        "queue_wait_s": queue_wait,
        "server_s": server_times,
        "batches": stats[0].batches_out if stats else 0,
        "predicate_evals": sum(s.predicate_evals for s in stats),
        "peak_buffered_rows": max((s.peak_buffered_rows for s in stats), default=0),
        "containers_delivered": io["containers_read"] + io["containers_from_pool"],
        "containers_skipped": io["containers_skipped"],
        "cache_hit": bool(job.cache_hit or cache.get("hit")),
        "workers": io.get("workers"),
        "attempts": io.get("attempts", 0),
        "failovers": io.get("failovers", 0),
        "shards_touched": sum(r.servers_touched for r in reports),
        "shards_pruned": sum(len(r.pruned_server_ids) for r in reports),
    }


# ----------------------------------------------------------------------
# loops
# ----------------------------------------------------------------------


@dataclass
class Phase:
    """The samples of one measured phase, its wall time (less the time
    its clients spent in the reference kernel) and its speed factor."""

    samples: list
    wall: float
    speed: float


def _phase(results, kernels, started):
    """Fold the clients' samples and kernel timings into a :class:`Phase`.

    Each client ran the kernel once after every op; the wall those runs
    took (averaged over clients, who ran them side by side) is no part of
    the system's work and is taken off the phase's wall time.
    """
    wall = time.perf_counter() - started
    kernel_wall = sum(w for mine in kernels for _cpu, w in mine) / len(kernels)
    cpu = [c for mine in kernels for c, _wall in mine]
    samples = [s for mine in results for s in mine]
    return Phase(samples, wall - kernel_wall, speed_factor(cpu) if cpu else 1.0)


def _timed_kernel():
    """``(thread CPU seconds, wall seconds)`` of one kernel run."""
    started = time.perf_counter()
    cpu = kernel_seconds()
    return cpu, time.perf_counter() - started


def closed_loop(clients, budget):
    """Closed loop: each client sends its next op when the previous one
    completed.  ``clients`` is a list of ``(run_one, ops)`` where
    ``run_one(op, due=None)`` returns a :class:`Sample` and ``ops`` is
    that client's op iterator.  All clients share the deadline; with
    ``--ops`` the count is divided among them.
    """
    results = [[] for _ in clients]
    kernels = [[] for _ in clients]
    share = budget.per_client(len(clients))
    gc.collect()
    started = time.perf_counter()

    def drive(index):
        run_one, ops = clients[index]
        mine = results[index]
        # The budget is checked before an op is taken, so no generated op
        # is dropped (a generator may track state its ops create).
        while not share.spent(len(mine), time.perf_counter() - started):
            op = next(ops, None)
            if op is None:
                break
            mine.append(run_one(op))
            kernels[index].append(_timed_kernel())

    _run_clients(drive, len(clients))
    return _phase(results, kernels, started)


def open_loop(clients, due_times):
    """Open loop: request ``i`` is due at ``due_times[i]`` seconds after
    the phase starts, whatever happened to earlier requests, and goes to
    client ``i % len(clients)``.  A client whose previous request is
    still running sends late; latency counts from the due time and the
    lateness of each send is kept in ``Sample.layer['late_s']``.
    """
    results = [[] for _ in clients]
    kernels = [[] for _ in clients]
    gc.collect()
    started = time.perf_counter()

    def drive(index):
        run_one, ops = clients[index]
        mine = results[index]
        for offset in due_times[index :: len(clients)]:
            due = started + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sample = run_one(next(ops), due=due)
            sample.layer["late_s"] = max(0.0, sample.start - due)
            mine.append(sample)
            kernels[index].append(_timed_kernel())

    _run_clients(drive, len(clients))
    return _phase(results, kernels, started)


def _run_clients(drive, count):
    """Run ``drive(i)`` for every client: inline for one client, one
    thread each otherwise; a client's exception is re-raised here."""
    if count == 1:
        drive(0)
        return
    errors = []

    def guarded(index):
        try:
            drive(index)
        except BaseException as exc:  # re-raised below, in the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(i,), name=f"bench-client-{i}")
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class OpCounter:
    """Thread-safe op numbering shared by a workload's clients."""

    def __init__(self):
        self._lock = threading.Lock()
        self._next = 0

    def __iter__(self):
        return self

    def __next__(self):
        with self._lock:
            value = self._next
            self._next += 1
        return value


def verify(samples, oracle):
    """Mark each sample correct or not against the oracle; returns how
    many failed (errors, refusals, wrong or stale answers)."""
    failed = 0
    for sample in samples:
        if sample.error is not None:
            sample.correct = False
        elif sample.correct is None:
            sample.correct = same_answer(oracle.expect(sample.op), sample.digest)
        failed += not sample.correct
    return failed
