"""The network client: a remote archive behind the ordinary Session API.

:class:`RemoteExecutor` implements the session layer's
:class:`~repro.query.physical.Executor` protocol against an
:class:`~repro.net.server.ArchiveServer`, so::

    session = Archive.connect("archive://host:port")

returns a perfectly ordinary :class:`~repro.session.Session` — same
jobs, cursors, batch queueing, cancellation and explain — whose queries
happen to execute in another process.  The moving part is
:class:`RemoteRootNode`, a leaf QET node whose thread speaks the wire
protocol: it submits the query as a server-side session job, pulls
result batches (client-driven streaming, so backpressure crosses the
network hop for free), folds the server's per-node
:class:`~repro.query.qet.NodeStats` into its own, keeps the server's
sweep, pool and cache counters for the client job's metrics, and
propagates :meth:`Job.cancel` over the wire.

Every wire call goes through one :class:`ServerLink` — one server's
address, identity, timeouts, round-trip telemetry and retry policy.
Connections are one-shot.  A query is one connection: ``submit``, whose
``accepted`` reply describes the query (schema, sources, fan-out
reports) from the server's one prepare, then ``fetch_batch``... until
the frame that says ``done`` brings the server's statistics with it.
Only EXPLAIN asks for the server's plan (``prepare``, on a connection
of its own).  A link with credentials puts them on each connection's
first frame; there is no separate identifying exchange.

Failure contract: a dead or crashed server surfaces as a *FAILED* job
with the connection error as its cause — never a hang.  Cancellation is
out-of-band (a side connection carrying ``cancel`` plus a shutdown of
the streaming socket), so a job blocked deep in the server's batch queue
still cancels promptly.

Two resilience layers soften that contract without weakening it:
*control-plane* ops (hello, prepare, stats, mydb) are idempotent and
retried through a :class:`RetryPolicy` (capped exponential backoff with
jitter), and a *shard* node under the replicated scatter-gather
coordinator carries a failover plan — when its server dies mid-stream
the node re-routes the still-undelivered container ranges to surviving
replicas instead of failing the job (see
:class:`~repro.net.cluster.RemotePartitionedExecutor`).  Submissions
themselves are never blindly retried: a full-mode submit is not
idempotent once the first byte streamed.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import ClassVar, Optional

from repro.obs.metrics import registry as metrics_registry
from repro.obs.trace import Span
from repro.net.protocol import (
    SUPPORTED_COMPRESSION,
    ConnectionClosed,
    ProtocolError,
    RemoteArchiveError,
    node_stats_from_wire,
    plan_from_wire,
    raise_from_wire,
    recv_frame,
    report_from_wire,
    schema_from_wire,
    send_frame,
    table_from_wire,
)
from repro.query.errors import ExecutionError
from repro.query.physical import Executor, PreparedQuery
from repro.query.qet import QETNode, Stream

__all__ = [
    "WireTelemetry",
    "RetryPolicy",
    "ServerLink",
    "RemoteExecutor",
    "RemoteRootNode",
    "parse_archive_url",
    "parse_archive_options",
    "open_connection",
]


def parse_archive_url(url):
    """``archive://[user:token@]host:port[?options]`` -> ``(host, port)``."""
    return ServerLink.from_url(url).endpoint


def parse_archive_options(url):
    """``?key=value&...`` options of an archive URL as a dict.

    Recognized keys: ``compress`` (a table-frame codec name, e.g.
    ``archive://host:port?compress=zlib``).
    """
    parts = url.split("?", 1)
    if len(parts) == 1 or not parts[1]:
        return {}
    options = {}
    for item in parts[1].split("&"):
        key, sep, value = item.partition("=")
        if not key:
            raise ValueError(f"malformed archive URL option {item!r} in {url!r}")
        options[key] = value if sep else ""
    return options


def open_connection(endpoint, connect_timeout=5.0, timeout=None):
    """TCP connection to an archive server with NODELAY set.

    ``connect_timeout`` bounds the handshake (a dead host must fail,
    not hang); ``timeout`` is the per-recv bound afterwards (``None``
    blocks — cancellation interrupts via socket shutdown).
    """
    sock = socket.create_connection(endpoint, timeout=connect_timeout)
    sock.settimeout(timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass
    return sock


class RetryPolicy:
    """Capped exponential backoff with jitter for idempotent wire ops.

    The schedule between attempt ``k`` and ``k+1`` is::

        delay_k = min(max_delay, base_delay * multiplier**k)

    jittered uniformly within ``±jitter`` of itself (a fraction, so
    ``jitter=0.25`` means the actual sleep lands in ``[0.75, 1.25] *
    delay_k``) — retries from many clients decorrelate instead of
    stampeding a recovering server.  When every attempt fails, the
    *original* (last) exception re-raises unchanged, so callers keep
    their structured error classes.

    ``sleep`` and ``rng`` are injectable for deterministic tests.  Each
    performed retry increments the ``net.retries`` counter in the
    process-wide metrics registry.
    """

    def __init__(
        self,
        attempts=3,
        base_delay=0.05,
        max_delay=2.0,
        multiplier=2.0,
        jitter=0.25,
        sleep=time.sleep,
        rng=None,
    ):
        self.attempts = max(1, int(attempts))
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.multiplier = float(multiplier)
        self.jitter = float(jitter)
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()

    def delay(self, attempt):
        """The jittered backoff after failed attempt ``attempt`` (0-based)."""
        base = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        if not self.jitter:
            return base
        spread = base * self.jitter
        return max(0.0, base - spread + self._rng.random() * 2.0 * spread)

    def call(self, fn, retry_on=(OSError, ConnectionClosed)):
        """Run ``fn`` with retries; only ``retry_on`` errors are retried.

        Anything outside ``retry_on`` (a structured server error, an
        authentication refusal) propagates immediately — retrying those
        would just repeat the refusal.
        """
        for attempt in range(self.attempts):
            try:
                return fn()
            except retry_on:
                if attempt + 1 >= self.attempts:
                    raise
                metrics_registry().counter("net.retries").inc()
                self._sleep(self.delay(attempt))


class WireTelemetry:
    """Round-trip accounting shared by an executor and its query nodes."""

    def __init__(self):
        self._lock = threading.Lock()
        self.round_trips = 0

    def note_round_trip(self, n=1):
        with self._lock:
            self.round_trips += n

    def snapshot(self):
        with self._lock:
            return self.round_trips


def _request(sock, header, telemetry=None):
    """One request/response exchange; re-raises structured errors."""
    send_frame(sock, header)
    response, body = recv_frame(sock)
    if telemetry is not None:
        telemetry.note_round_trip()
    if response.get("op") == "error":
        raise_from_wire(response)
    return response, body


@dataclass
class ServerLink:
    """How to reach, identify to, and retry against one archive server.

    Connections are one-shot.  :meth:`call` is a whole idempotent
    exchange (connect, one identified frame, one reply, close) under the
    retry policy; :meth:`open` + :meth:`request` serve a stream, whose
    caller owns the socket and marks its first frame ``identify=True``.
    :meth:`at` is the same link pointed at another endpoint (failover
    segments).
    """

    #: recv bound on one-shot exchanges and on a stream's ``submit``.
    #: Their replies cost the server a parse+plan at most, so a wedged
    #: server must fail the call, not hang ``Session.submit`` with no job
    #: to cancel.  The ``fetch_batch`` rounds after it stay unbounded by
    #: default (long queries legitimately pause between batches) and are
    #: interruptible through the cancel hook instead.
    CONTROL_TIMEOUT: ClassVar[float] = 30.0

    endpoint: tuple
    user: Optional[str] = None
    token: Optional[str] = None
    connect_timeout: float = 5.0
    timeout: Optional[float] = None
    telemetry: WireTelemetry = field(default_factory=WireTelemetry)
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    @classmethod
    def from_url(cls, url, user=None, token=None, **fields):
        """A link to ``archive://[user:token@]host:port[?options]``.

        Explicit ``user``/``token`` win over the URL's.  A bare
        ``user@host:port`` (no colon) has no token, so an ``auth=``
        server still refuses it with a structured authentication error.
        """
        prefix = "archive://"
        if not url.startswith(prefix):
            raise ValueError(
                f"not an archive URL: {url!r} (expected {prefix}host:port)"
            )
        rest = url[len(prefix) :].split("?", 1)[0].strip("/")
        creds, _, hostport = rest.rpartition("@")
        host, sep, port = hostport.rpartition(":")
        if not sep or not host or not port.isdigit():
            raise ValueError(f"archive URL needs host:port, got {url!r}")
        url_user, colon, url_token = creds.partition(":")
        if user is None:
            user = url_user or None
        if token is None and colon:
            token = url_token
        return cls((host, int(port)), user=user, token=token, **fields)

    def at(self, endpoint):
        return replace(self, endpoint=tuple(endpoint))

    def open(self, timeout):
        """A fresh connection; ``timeout`` bounds each recv (None blocks)."""
        return open_connection(self.endpoint, self.connect_timeout, timeout)

    def request(self, sock, header, identify=False):
        """One exchange on ``sock``.  ``identify`` marks a connection's
        first frame, which carries the link's credentials."""
        if identify and (self.user is not None or self.token is not None):
            header = {**header, "user": self.user, "token": self.token}
        return _request(sock, header, telemetry=self.telemetry)

    @property
    def control_timeout(self):
        """The recv bound of an exchange that must not hang: ``timeout``
        when the caller set one, else :attr:`CONTROL_TIMEOUT`."""
        return self.timeout if self.timeout is not None else self.CONTROL_TIMEOUT

    def once(self, header):
        """One exchange on a connection of its own; the reply header."""
        with self.open(self.control_timeout) as sock:
            return self.request(sock, header, identify=True)[0]

    def call(self, header):
        """:meth:`once` under the retry policy — idempotent ops only."""
        return self.retry.call(lambda: self.once(header))


class _CancelSignallingStream(Stream):
    """A node output stream whose cancellation also pokes the network.

    ``Job.cancel`` cancels every node's output stream; for a remote node
    that must *interrupt a blocked recv* and reach the server, so the
    stream runs the node's hook (side-channel cancel + socket shutdown)
    after the normal cancel."""

    def __init__(self, on_cancel, maxsize=8):
        super().__init__(maxsize=maxsize)
        self._on_cancel = on_cancel

    def cancel(self):
        super().cancel()
        try:
            self._on_cancel()
        except OSError:
            pass


class RemoteRootNode(QETNode):
    """Leaf QET node executing one query on a remote archive server.

    ``mode="full"`` runs the whole query server-side (the single-
    endpoint ``archive://`` session); ``mode="shard"`` runs only the
    pushed-down shard half of SELECT number ``select_index`` — the
    building block of the remote scatter-gather executor, whose
    coordinator stacks the ordinary merge tree on top of these nodes.

    A shard leaf also carries ``ranges`` (this shard's disjoint
    container assignment) and ``failover`` (the query's shared
    :class:`~repro.net.cluster.ShardFailoverPlanner`).  The node runs a
    queue of *segments* — ``(endpoint, ranges)`` submissions — starting
    with its own assignment: when a segment's server dies mid-stream,
    the still-undelivered ranges (assignment minus the ``delivered``
    claim) are split across surviving replicas as new segments — or,
    when no survivor holds them, fail the job with an
    :class:`~repro.query.errors.UnrecoverableShardError`.  Segments are
    disjoint, so no row is lost or duplicated: plain streams are
    order-free, aggregate partials recombine over disjoint containers,
    and the coordinator sorts an ordered query's streams whole.

    A bare ``LIMIT k`` stream resumes the same way: its LIMIT cuts rows
    only from its last batch, so a claim covers undelivered rows only
    once this leaf has emitted ``k`` rows, all the coordinator's
    ``LimitNode(k)`` can take from it.  A replacement adds rows disjoint
    from those, and that LIMIT caps them.

    A full-mode root has no ``failover`` plan: a dead server fails the
    job with the connection error as its cause.  It submits from the
    thread that starts it (:meth:`start`), and the ``accepted`` frame's
    description of the query completes the owning job's
    :class:`~repro.query.physical.PreparedQuery`; its server-rendered
    plan (:attr:`remote_plan`) is fetched only when something reads it.
    """

    name = "remote"

    #: result batches asked for per ``fetch_batch`` round trip (the server
    #: sends fewer rather than stall a ready one; its cap is ``_MAX_FETCH``)
    FETCH_BATCHES = 8

    def __init__(
        self,
        link,
        text,
        allow_tag_route=True,
        mode="full",
        select_index=0,
        server_id=None,
        compression=None,
        ranges=None,
        failover=None,
    ):
        super().__init__(())
        self.output = _CancelSignallingStream(self._on_cancelled)
        #: the :class:`ServerLink` of the first segment's server; every
        #: connection this node opens is ``link`` or ``link.at(...)``
        self.link = link
        self.text = text
        self.allow_tag_route = allow_tag_route
        self.mode = mode
        self.select_index = int(select_index)
        #: table-frame codec to request from the server (None = raw);
        #: the server's choice comes back in the ``accepted`` frame and
        #: decompression is transparent in ``table_from_wire``
        self.compression = compression
        #: the server-rendered PlanTree, once :attr:`remote_plan` asked
        self._remote_plan = None
        #: the PreparedQuery a full-mode ``accepted`` frame completes
        #: (set by :meth:`RemoteExecutor.prepare`; None for a shard leaf)
        self._described = None
        #: annotation consumed by the structured explain (shard index)
        self.server_id = server_id
        #: query class forwarded to the server-side session (bound by
        #: the owning Job just before the tree starts)
        self.query_class = "interactive"
        #: client trace id forwarded on the submit frame so the server
        #: records its spans under the same trace (bound by the Job)
        self.trace_id = None
        #: client-side wire round-trip spans (submit / stream),
        #: consumed by the job's trace assembly
        self.wire_spans = []
        #: offset-encoded server-side spans from the ``done`` frame
        #: (grafted under this node's span at trace assembly)
        self.remote_spans = None
        #: server-executed analyzed plan tree (EXPLAIN ANALYZE passthrough)
        self.remote_analyzed_plan = None
        #: codec the server actually agreed to (set at submit time)
        self.negotiated_compression = None
        #: this shard's disjoint container assignment (closed intervals);
        #: ``None`` in full mode
        self.ranges = ranges
        #: the query's shared failover planner (``None`` in full mode)
        self.failover = failover
        #: submissions attempted (1 on a clean run) and successful
        #: failovers — folded into Job.io_report / the query log
        self.attempts = 0
        self.failovers = 0
        #: cumulative ``delivered`` annotation of the *current* segment
        self._segment_delivered = None
        #: server-side job id once accepted
        self.remote_job_id = None
        #: serialized per-node NodeStats from the server (after drain)
        self.remote_node_stats = None
        #: the ``done`` frame's ``raw``: the server job's ``sweep.*`` /
        #: ``buffer_pool.*`` / ``cache.*`` counters in registry names,
        #: which the client job's metrics merge in
        self.remote_io_raw = None
        #: the current segment's link and socket (guarded by the lock)
        self._segment_link = link
        self._sock = None
        self._sock_lock = threading.Lock()
        self._cancel_sent = False
        #: a transport failure of the submit :meth:`start` sent, which
        #: the node's thread fails the job with
        self._lost = None

    @property
    def endpoint(self):
        """The first segment's server (what explain and traces name)."""
        return self.link.endpoint

    @property
    def remote_plan(self):
        """The server-rendered :class:`~repro.session.plan.PlanTree` of a
        full-mode query (``None`` for a shard leaf), fetched with one
        ``prepare`` exchange the first time it is read: EXPLAIN asks for
        it, a query that only runs never does."""
        if self.mode != "full":
            return None
        if self._remote_plan is None:
            header = self.link.call(
                {
                    "op": "prepare",
                    "text": self.text,
                    "allow_tag_route": self.allow_tag_route,
                }
            )
            self._remote_plan = plan_from_wire(header.get("plan"))
        return self._remote_plan

    # -- session integration --------------------------------------------

    def bind_job(self, job):
        """Called by the owning Job just before the tree starts: carry
        job context to the server.

        A full-mode root adopts the job's query class so batch jobs from
        many remote clients serialize through the *server's* one batch
        machine; shard leaves under a scatter-gather merge tree stay
        interactive server-side (the client's own batch queue already
        serialized the job).  Every mode forwards the trace id so the
        server's spans land in the client's trace.
        """
        if self.mode == "full":
            self.query_class = job.query_class
        self.trace_id = job.trace_id

    # -- cancellation ---------------------------------------------------

    def _on_cancelled(self):
        """Stream-cancel hook: reach the server out-of-band, then break
        any blocked recv on the streaming socket.

        The side-channel cancel runs on its own daemon thread: the hook
        executes on the *canceller's* thread (``Job.cancel`` walking the
        tree), and an unreachable endpoint must not stall that walk for
        a connect timeout per remote leaf — the streaming-socket
        shutdown below already unblocks this node either way.
        """
        threading.Thread(target=self._send_side_cancel, daemon=True).start()
        with self._sock_lock:
            sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _send_side_cancel(self):
        """Best-effort ``cancel`` op on a fresh connection.

        A side channel, not the streaming socket: the streaming
        connection may be mid-response (or the server handler blocked in
        a batch queue), while a fresh connection's cancel is handled
        immediately by its own server thread.
        """
        with self._sock_lock:
            if self._cancel_sent or self.remote_job_id is None:
                return
            self._cancel_sent = True
            job_id = self.remote_job_id
            link = self._segment_link
        try:
            # Cancel rights are owner-scoped, and the side channel is a
            # fresh connection: it says who asks before it cancels.
            link.once({"op": "cancel", "job_id": job_id})
        except (OSError, ProtocolError, RemoteArchiveError):
            pass

    # -- execution ------------------------------------------------------

    def start(self):
        """Start the node.  A full-mode root first opens the query's one
        connection and submits on it, from the starting thread: a query
        the server refuses (parse, plan, authentication) raises here, so
        from ``Session.submit``, as does a server that cannot be reached
        (its connection is opened under the link's retry policy: nothing
        has been sent yet).  A connection that dies once the submit is
        sent fails the job from the node's thread instead, after its one
        attempt.
        """
        if self.mode == "full":
            sock = self._connect(self.link)
            try:
                self._submit(sock, self.link, self.ranges)
            except (OSError, ConnectionClosed) as exc:
                self._lost = exc
            except BaseException:
                self._disconnect(sock)
                raise
        super().start()

    def run(self):
        # One entry per pending submission: (link, ranges).  A clean
        # run is the single initial segment; each failover replaces a
        # dead segment with re-routed ones covering its remainder.
        segments = deque([(self.link, self.ranges)])
        while segments:
            link, ranges = segments.popleft()
            try:
                self._run_segment(link, ranges)
            except (OSError, ConnectionClosed) as exc:
                if self.output.cancelled():
                    return  # interrupted by our own cancellation
                segments.extend(self._plan_failover(link, ranges, exc))
            except Exception:
                # A structured error frame that merely reflects our own
                # cancellation (e.g. the server-side job reporting
                # "cancelled") is a clean exit, not a failure.
                if self.output.cancelled():
                    return
                raise

    def _run_segment(self, link, ranges):
        # A full-mode root's one segment was opened and submitted by start().
        opened = self._sock
        sock = opened if opened is not None else self._connect(link)
        try:
            if self._lost is not None:
                raise self._lost
            if opened is None:
                if self.output.cancelled():
                    return
                self._submit(sock, link, ranges)
            self._stream(sock, link)
        finally:
            self._disconnect(sock)

    def _connect(self, link):
        """Open a segment's connection and make it the one the cancel
        hook breaks and the side-channel cancel follows."""
        self.attempts += 1
        self._segment_delivered = None
        if self.mode == "full":
            # No failover plan: retry the open, which sent nothing.
            sock = link.retry.call(lambda: link.open(link.control_timeout))
        else:
            sock = link.open(link.control_timeout)
        with self._sock_lock:
            self._sock = sock
            # Per-segment wire state: a replacement submission is a new
            # server-side job (on a new server), so the side-channel
            # cancel must target it, not the dead one.
            self._segment_link = link
            self.remote_job_id = None
            self._cancel_sent = False
        return sock

    def _disconnect(self, sock):
        with self._sock_lock:
            self._sock = None
        try:
            sock.close()
        except OSError:
            pass

    def _plan_failover(self, link, ranges, exc):
        """Replacement segments after ``link``'s server died mid-stream.

        Returns ``[(link, intervals), ...]`` covering the dead
        segment's still-undelivered ranges; empty when everything was
        already delivered.  Raises (failing the job) when no failover
        plan exists — a full-mode root — or when no surviving replica
        covers the remainder
        (:class:`~repro.query.errors.UnrecoverableShardError`).
        """
        endpoint = link.endpoint
        host, port = endpoint
        if self.failover is None:
            raise ConnectionClosed(
                f"archive server at {host}:{port} died mid-stream: {exc}"
            ) from exc
        self.failover.mark_dead(endpoint)
        remaining = self.failover.undelivered(ranges, self._segment_delivered)
        if remaining.is_empty():
            # The stream died after its last data batch (e.g. during the
            # done handshake): every assigned container is accounted
            # for, so there is nothing to re-route.
            self.failovers += 1
            metrics_registry().counter("net.failovers").inc()
            return []
        replacements = self.failover.replacements(remaining, endpoint)
        self.failovers += 1
        metrics_registry().counter("net.failovers").inc()
        return [(link.at(ep), rs.intervals) for ep, rs in replacements]

    def _submit(self, sock, link, ranges):
        """``submit`` on the segment's connection, bounded like a one-shot
        exchange; once ``accepted``, the socket waits on the stream's own
        bound."""
        submit = {
            "op": "submit",
            "text": self.text,
            "allow_tag_route": self.allow_tag_route,
            "query_class": self.query_class,
            "mode": self.mode,
            "select_index": self.select_index,
        }
        if ranges is not None:
            submit["ranges"] = [list(iv) for iv in ranges]
        if self.trace_id is not None:
            submit["trace_id"] = self.trace_id
        if self.compression in SUPPORTED_COMPRESSION:
            # only advertise codecs this build can also decode — a codec
            # a newer server speaks but we cannot must degrade to raw at
            # submit time, not fail mid-stream on the first large batch
            submit["accept_compression"] = [self.compression]
        submit_span = Span("wire:submit", started_at=time.perf_counter())
        self.wire_spans.append(submit_span)
        accepted, _ = link.request(sock, submit, identify=True)
        submit_span.ended_at = time.perf_counter()
        sock.settimeout(link.timeout)
        #: what the server actually chose (None when it spoke no
        #: requested codec — older servers simply ignore the field)
        self.negotiated_compression = accepted.get("compression")
        with self._sock_lock:
            self.remote_job_id = accepted.get("job_id")
        if self._described is not None:
            # The server's one prepare describes the query.
            self._described.schema = schema_from_wire(accepted.get("schema"))
            self._described.sources = list(accepted.get("sources", []))
            self._described.reports = [
                report_from_wire(r) for r in accepted.get("reports", [])
            ]

    def _stream(self, sock, link):
        stream_span = Span("wire:stream", started_at=time.perf_counter())
        self.wire_spans.append(stream_span)
        done = False
        while not done:
            if self.output.cancelled():
                self._send_side_cancel()
                return
            response, _ = link.request(
                sock,
                {
                    "op": "fetch_batch",
                    "job_id": self.remote_job_id,
                    "max_batches": self.FETCH_BATCHES,
                },
            )
            stream_span.attrs["round_trips"] = (
                stream_span.attrs.get("round_trips", 0) + 1
            )
            done = bool(response.get("done"))
            state = response.get("state")
            if done and state is not None and state != "done":
                # The server exhausted the stream but its job did not end
                # DONE — a server-side cancel (e.g. shutdown) between two
                # fetch rounds.  A clean "done" here would silently pass
                # off a truncated prefix as the full result.
                raise ExecutionError(
                    f"server-side job {self.remote_job_id!r} ended "
                    f"{state} mid-stream"
                )
            for _index in range(int(response.get("count", 0))):
                batch_header, body = recv_frame(sock)
                if batch_header.get("op") == "error":
                    raise_from_wire(batch_header)
                batch = table_from_wire(batch_header, body)
                stream_span.attrs["batches"] = (
                    stream_span.attrs.get("batches", 0) + 1
                )
                if len(batch) and not self._emit(batch):
                    self._send_side_cancel()
                    return
                delivered = batch_header.get("delivered")
                if delivered is not None:
                    # Range-restricted shard stream: the server's
                    # cumulative claim of containers fully accounted
                    # for.  Recorded only after the batch is safely in
                    # the output stream — the failover remainder is
                    # computed against it.
                    self._segment_delivered = delivered
        stream_span.ended_at = time.perf_counter()
        # Only now, with every batch frame of the last round received:
        # a stream that dies after its done header is still a failover.
        self._collect_stats(response)

    def _collect_stats(self, stats):
        """Fold what the ``done`` frame carries — NodeStats, server
        spans, the analyzed plan, the store-side counters — into this
        node, so the client job's telemetry is real, not empty."""
        self.remote_spans = stats.get("spans")
        self.remote_analyzed_plan = plan_from_wire(stats.get("analyzed_plan"))
        nodes = stats.get("nodes", [])
        self.remote_node_stats = nodes
        self.stats.fold(*map(node_stats_from_wire, nodes))
        self.remote_io_raw = stats.get("raw")


class RemoteExecutor(Executor):
    """Executor protocol adapter: queries prepared against a far archive.

    ``prepare`` makes no wire exchange: it returns an unstarted
    :class:`RemoteRootNode`, and the query's description waits for the
    server.  When the job starts, the node opens the query's one
    connection and submits; the server parses, plans and routes the query
    once, and its ``accepted`` reply carries the static output schema,
    the routed sources and the fan-out reports.  Only EXPLAIN asks the
    server for the structured plan tree (a ``prepare`` exchange, made
    the first time :attr:`RemoteRootNode.remote_plan` is read).
    """

    kind = "remote"

    def __init__(
        self,
        host,
        port,
        *,
        connect_timeout=5.0,
        timeout=None,
        compression=None,
        user=None,
        token=None,
    ):
        #: address, tenant identity, timeouts, telemetry and the
        #: RetryPolicy of the idempotent ops (hello, stats, mydb, and
        #: EXPLAIN's prepare).  Submissions are never retried — they
        #: stop being idempotent the moment the first byte streams.
        self.link = ServerLink(
            (host, int(port)),
            user=user,
            token=token,
            connect_timeout=connect_timeout,
            timeout=timeout,
        )
        #: table-frame codec to request for result streams (e.g.
        #: ``"zlib"``); servers that do not speak it fall back to raw
        #: frames, so this is always safe to set
        self.compression = compression

    @property
    def telemetry(self):
        return self.link.telemetry

    @classmethod
    def from_url(cls, url, **kwargs):
        """Build from ``archive://[user:token@]host:port[?compress=zlib]``.

        Explicit ``user=``/``token=`` keyword arguments win over URL
        credentials.
        """
        options = parse_archive_options(url)
        if "compress" in options and "compression" not in kwargs:
            kwargs["compression"] = options["compress"] or "zlib"
        user, token = kwargs.pop("user", None), kwargs.pop("token", None)
        link = ServerLink.from_url(url, user, token)
        host, port = link.endpoint
        return cls(host, port, user=link.user, token=link.token, **kwargs)

    @property
    def url(self):
        host, port = self.link.endpoint
        return f"archive://{host}:{port}"

    def hello(self):
        """Server metadata: kind, sources, schemas, depth, shard ranges.

        Not part of a query, but the cheapest way to ask a server what
        it hosts — or whether it takes these credentials (a structured
        :class:`~repro.service.errors.AuthenticationError` if not).
        """
        return self.link.call({"op": "hello"})

    def stats(self):
        """The server's ``stats`` snapshot: metrics registry contents
        (cache hit rate, pool/sweep counters, admission queue depth)
        plus server vitals (uptime, per-user job counts)."""
        return self.link.call({"op": "stats"})

    def mydb_op(self, action, name=None):
        """Control-plane MyDB operation against the server-side
        workspace: ``"list"``, ``"usage"``, or ``"drop"`` (with
        ``name``).  Returns the server's response header.

        ``list`` and ``usage`` are pure reads; ``drop`` is idempotent
        too (dropping an already-dropped table is a structured error,
        not a retried side effect), so all three ride the retry policy.
        """
        request = {"op": "mydb", "action": action}
        if name is not None:
            request["name"] = name
        return self.link.call(request)

    def prepare(self, text, allow_tag_route=True):
        root = RemoteRootNode(
            self.link,
            text,
            allow_tag_route=allow_tag_route,
            compression=self.compression,
        )
        prepared = PreparedQuery(text=text, root=root)
        root._described = prepared
        return prepared

    def __repr__(self):
        return f"RemoteExecutor({self.url!r})"
