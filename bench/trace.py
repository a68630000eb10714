"""Benchmark-side spans for the traced run.

Spans are recorded by the benchmark's own code around its calls into the
system (and, read-only, copied from the program's public
``Cursor.trace()``), kept in memory, and written to
``bench/out/trace-<workload>.json`` when the workload ends.  A span is
``(id, parent, op, layer, name, start, end)``; spans of one op share
its ``op`` number.  A layer's self time is the sum over its spans of the
span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict

#: program span name -> the layer it is charged to (``node:<kind>`` and
#: ``wire:<phase>`` fall through to the prefixes below)
_PROGRAM_LAYERS = {
    "parse": "query.parser",
    "plan": "query.optimizer",
    "queue": "session",
    "execute": "query.qet",
    "query": "session",
    "node:scan": "machines",
    "node:remote": "net",
    "node:exchange": "distributed",
    "node:merge_sort": "distributed",
    "node:cached": "service",
}


def program_layer(name):
    """The layer a span copied from the program's own trace belongs to."""
    if name in _PROGRAM_LAYERS:
        return _PROGRAM_LAYERS[name]
    if name.startswith("wire:"):
        return "net"
    if name.startswith("node:"):
        return "query.qet"
    return "session"


class SpanRecorder:
    """In-memory span list; thread-safe appends."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._next_id = 0

    def add(self, layer, name, start, end, parent=None, op=None):
        """Record a finished span; returns its id."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self.spans.append((span_id, parent, op, layer, name, start, end))
        return span_id

    def graft(self, program_trace, parent, op):
        """Copy the spans of a program ``Trace`` under ``parent``.

        The program's root ``query`` span is dropped (the benchmark's own
        request span brackets the same interval); server-side spans the
        program already rebased onto the client clock are kept.
        """
        ids = {}
        for span in program_trace.spans:
            if span.ended_at is None or span.started_at is None:
                continue
            if span.parent_id is None:
                ids[span.span_id] = parent
                continue
            ids[span.span_id] = self.add(
                program_layer(span.name),
                span.name,
                span.started_at,
                span.ended_at,
                parent=ids.get(span.parent_id, parent),
                op=op,
            )

    def write(self, path, header):
        """Dump every span as JSON (times relative to the first span)."""
        spans = sorted(self.spans, key=lambda s: s[5])
        origin = spans[0][5] if spans else 0.0
        payload = dict(header)
        payload["columns"] = ["id", "parent", "op", "layer", "name", "start_s", "end_s"]
        payload["spans"] = [
            [sid, parent, op, layer, name, start - origin, end - origin]
            for sid, parent, op, layer, name, start, end in spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")


def _covered(intervals, lo, hi):
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_time_by_layer(spans, root_name="request"):
    """``{layer: seconds}`` of self time under the ``root_name`` spans.

    Only descendants of a request span count (probe spans are siblings
    of it and are excluded), so the values sum to the total time the
    client waited on requests.
    """
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span)
    totals = defaultdict(float)
    stack = [s for s in spans if s[4] == root_name]
    while stack:
        span_id, _parent, _op, layer, _name, start, end = stack.pop()
        kids = children.get(span_id, ())
        cover = _covered([(k[5], k[6]) for k in kids], start, end)
        totals[layer] += max(0.0, (end - start) - cover)
        stack.extend(kids)
    return dict(totals)
