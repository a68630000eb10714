"""Structured query tracing: one span tree per submitted query.

Answers the question the flat counters cannot: *where did this query's
150 ms go?*  Every :meth:`Session.submit` mints a trace id and records
:class:`Span`\\ s for the phases it owns — parse, plan, admission
queue-wait, execute — and the per-QET-node spans are derived after the
fact from :class:`~repro.query.qet.NodeStats` timestamps (every node
already records ``started_at`` / ``first_output_at`` / ``finished_at``
on its own thread, so tracing adds no per-batch cost to the hot path).

Remote execution keeps the tree whole: the trace id rides the ``submit``
frame, the archive server records its own spans under the same id, and
the stream's ``done`` frame ships them back as offset-encoded wire spans
(:meth:`Trace.to_wire`).  The client grafts them under the remote leaf's
span (:meth:`Trace.graft_wire`), re-based onto its own clock at the
moment the submit round-trip started — so one merged tree covers client
parse→plan→queue→per-node→wire *and* server-side execution, even across
multi-endpoint scatter-gather (one graft per shard leaf).

Timestamps are ``time.perf_counter()`` floats (``None`` = never
happened); only *offsets* ever cross the wire, so the two processes'
unrelated clock bases cancel out.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager

__all__ = [
    "Span",
    "Trace",
    "mint_trace_id",
    "assemble_job_trace",
]


def mint_trace_id():
    """A fresh 16-hex-digit trace id."""
    return uuid.uuid4().hex[:16]


def _mint_span_id():
    return uuid.uuid4().hex[:12]


class Span:
    """One timed phase of a query: a name, a parent, and two timestamps.

    ``started_at``/``ended_at`` are ``perf_counter`` seconds or ``None``
    (a span for something that never started keeps ``None`` — the
    normalized form of the old ``started_at == 0.0`` ambiguity).
    ``attrs`` carries the phase's counters (rows, containers, endpoint).
    """

    __slots__ = ("name", "span_id", "parent_id", "started_at", "ended_at", "attrs")

    def __init__(
        self,
        name,
        span_id=None,
        parent_id=None,
        started_at=None,
        ended_at=None,
        attrs=None,
    ):
        self.name = name
        self.span_id = span_id or _mint_span_id()
        self.parent_id = parent_id
        self.started_at = started_at
        self.ended_at = ended_at
        self.attrs = dict(attrs or {})

    def duration(self):
        """Wall seconds, or ``None`` while unfinished / never started."""
        if self.started_at is None or self.ended_at is None:
            return None
        return self.ended_at - self.started_at

    def __repr__(self):
        d = self.duration()
        timing = "unstarted" if self.started_at is None else (
            "running" if d is None else f"{d * 1e3:.3f}ms"
        )
        return f"Span({self.name!r}, {timing})"


class Trace:
    """A thread-safe bag of spans sharing one trace id."""

    def __init__(self, trace_id=None):
        self.trace_id = trace_id or mint_trace_id()
        self._lock = threading.Lock()
        self.spans = []

    # -- recording -------------------------------------------------------

    def new_span(self, name, parent=None, started_at=None, ended_at=None, attrs=None):
        """Append a span; ``parent`` is a :class:`Span` or a span id."""
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        span = Span(
            name,
            parent_id=parent_id,
            started_at=started_at,
            ended_at=ended_at,
            attrs=attrs,
        )
        with self._lock:
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name, parent=None, attrs=None):
        """Context manager: a span covering the ``with`` body."""
        span = self.new_span(
            name, parent=parent, started_at=time.perf_counter(), attrs=attrs
        )
        try:
            yield span
        finally:
            span.ended_at = time.perf_counter()

    def end(self, span, at=None):
        span.ended_at = time.perf_counter() if at is None else at
        return span

    # -- queries ---------------------------------------------------------

    def find(self, name):
        """All spans of one name (insertion order)."""
        with self._lock:
            return [span for span in self.spans if span.name == name]

    def first(self, name):
        """The first span of one name, or ``None``."""
        with self._lock:
            for span in self.spans:
                if span.name == name:
                    return span
        return None

    def roots(self):
        """Spans with no (resolvable) parent."""
        with self._lock:
            ids = {span.span_id for span in self.spans}
            return [
                span
                for span in self.spans
                if span.parent_id is None or span.parent_id not in ids
            ]

    def children_of(self, span):
        span_id = span.span_id if isinstance(span, Span) else span
        with self._lock:
            return [s for s in self.spans if s.parent_id == span_id]

    def copy(self):
        """A new Trace with the same id and *copied* spans, so lazy
        assembly (node spans, finalized end times) never mutates the
        live recorder or duplicates spans across calls."""
        clone = Trace(trace_id=self.trace_id)
        with self._lock:
            for span in self.spans:
                clone.spans.append(
                    Span(
                        span.name,
                        span_id=span.span_id,
                        parent_id=span.parent_id,
                        started_at=span.started_at,
                        ended_at=span.ended_at,
                        attrs=dict(span.attrs),
                    )
                )
        return clone

    # -- rendering -------------------------------------------------------

    def render(self):
        """Indented tree, durations in ms, unset timestamps as None."""
        lines = [f"trace {self.trace_id} ({len(self.spans)} spans)"]

        def emit(span, indent):
            d = span.duration()
            if span.started_at is None:
                timing = "start=None"
            elif d is None:
                timing = "unfinished"
            else:
                timing = f"{d * 1e3:.3f}ms"
            extra = ""
            if span.attrs:
                parts = [f"{k}={v}" for k, v in span.attrs.items()]
                extra = " [" + " ".join(parts) + "]"
            lines.append("  " * indent + f"{span.name} {timing}{extra}")
            for child in self.children_of(span):
                emit(child, indent + 1)

        for root in self.roots():
            emit(root, 1)
        return "\n".join(lines)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Trace({self.trace_id!r}, spans={len(self.spans)})"

    # -- wire form -------------------------------------------------------

    def to_wire(self):
        """Offset-encoded, JSON-safe form of every span.

        Start times are encoded relative to the trace's earliest span,
        so the receiver can re-base them onto its own clock — absolute
        ``perf_counter`` values from another process are meaningless.
        """
        with self._lock:
            spans = list(self.spans)
        starts = [s.started_at for s in spans if s.started_at is not None]
        base = min(starts) if starts else 0.0
        return {
            "trace_id": self.trace_id,
            "spans": [
                {
                    "name": s.name,
                    "span_id": s.span_id,
                    "parent_id": s.parent_id,
                    "start_offset": (
                        None if s.started_at is None else s.started_at - base
                    ),
                    "duration": s.duration(),
                    "attrs": s.attrs,
                }
                for s in spans
            ],
        }

    def graft_wire(self, wire_spans, parent, anchor):
        """Merge another process's wire spans under ``parent``.

        ``anchor`` is the local ``perf_counter`` time the remote trace's
        base should map to (the moment the submit round-trip started).
        Fresh span ids are minted (two shard servers can never collide),
        wire-internal parent links are preserved, and any wire span
        without a resolvable parent — the server's root — is parented to
        ``parent``, so the merged tree has no orphans.
        """
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        wire_spans = list(wire_spans or ())
        id_map = {}
        for wire in wire_spans:
            old = wire.get("span_id")
            if old is not None:
                id_map[old] = _mint_span_id()
        grafted = []
        for wire in wire_spans:
            offset = wire.get("start_offset")
            duration = wire.get("duration")
            started = None if offset is None else anchor + offset
            ended = (
                None
                if started is None or duration is None
                else started + duration
            )
            span = Span(
                wire.get("name", "span"),
                span_id=id_map.get(wire.get("span_id")) or _mint_span_id(),
                parent_id=id_map.get(wire.get("parent_id"), parent_id),
                started_at=started,
                ended_at=ended,
                attrs=wire.get("attrs") or {},
            )
            grafted.append(span)
        with self._lock:
            self.spans.extend(grafted)
        return grafted


# ----------------------------------------------------------------------
# QET-derived spans
# ----------------------------------------------------------------------


def _node_attrs(node):
    stats = node.stats
    attrs = {"rows_out": stats.rows_out, "batches_out": stats.batches_out}
    attrs.update(stats.counters())
    endpoint = getattr(node, "endpoint", None)
    if endpoint is not None:
        host, port = endpoint
        attrs["endpoint"] = f"archive://{host}:{port}"
    return attrs


def _node_spans(trace, node, parent_id):
    """One span per QET node (fed from NodeStats timestamps), with a
    remote leaf's wire round-trips and grafted server spans beneath it."""
    stats = node.stats
    span = trace.new_span(
        f"node:{node.name}",
        parent=parent_id,
        started_at=stats.started_at,
        ended_at=stats.finished_at,
        attrs=_node_attrs(node),
    )
    if stats.first_output_at is not None:
        span.attrs["first_output_ms"] = (
            None
            if stats.started_at is None
            else round((stats.first_output_at - stats.started_at) * 1e3, 3)
        )
    wire_spans = getattr(node, "wire_spans", None) or ()
    anchor = None
    for wire in wire_spans:
        trace.new_span(
            wire.name,
            parent=span,
            started_at=wire.started_at,
            ended_at=wire.ended_at,
            attrs=dict(wire.attrs),
        )
        if wire.started_at is not None and (anchor is None or wire.started_at < anchor):
            anchor = wire.started_at
    remote_spans = getattr(node, "remote_spans", None)
    if remote_spans:
        if anchor is None:
            anchor = stats.started_at if stats.started_at is not None else 0.0
        trace.graft_wire(remote_spans, span, anchor)
    for child in node.children:
        _node_spans(trace, child, span.span_id)
    return span


def assemble_job_trace(job):
    """The merged span tree of one :class:`~repro.session.Job`.

    Returns a *copy* of the job's live trace recorder with the lazy
    parts materialized: the execute span's end pinned to
    ``time_to_completion``, the per-node spans derived from the QET's
    NodeStats, and each remote leaf's server-side spans grafted in.
    Safe to call repeatedly (each call re-assembles from the recorder).
    """
    base = getattr(job, "_trace", None)
    trace = base.copy() if base is not None else Trace()
    execute = trace.first("execute")
    query_span = trace.first("query")
    ttc = job.time_to_completion
    if (
        execute is not None
        and execute.ended_at is None
        and execute.started_at is not None
        and ttc is not None
    ):
        execute.ended_at = execute.started_at + ttc
    if job._started_at is not None:
        parent = execute if execute is not None else query_span
        _node_spans(
            trace, job._prepared.root, None if parent is None else parent.span_id
        )
    if query_span is not None and query_span.ended_at is None and job.state.is_terminal():
        ends = [s.ended_at for s in trace.spans if s.ended_at is not None]
        if ends:
            query_span.ended_at = max(ends)
    return trace
