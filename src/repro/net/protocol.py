"""The archive wire protocol: length-prefixed JSON + binary frames.

The paper's architecture is explicitly networked — the query agent
talks to a master server that farms work out to partition servers over
an interface boundary.  This module is that boundary's wire format: a
small request/response protocol spoken between
:class:`~repro.net.client.RemoteExecutor` (the query agent's side) and
:class:`~repro.net.server.ArchiveServer` (the archive's side).

Framing
-------
Every message is one *frame*::

    [u32 total_length][u32 header_length][header JSON][binary body]

``total_length`` counts everything after itself.  The header is a JSON
object whose ``op`` names the operation; the body carries bulk bytes
(packed numpy records for result batches) so tables never round-trip
through JSON.

Operations
----------
Identity is a header field, not an exchange: a request frame that
carries ``user``/``token`` identifies its connection, whatever its op
(the client library puts them on each connection's first frame).
A server with a user registry validates them — structured error on
mismatch, connection left as it was — and refuses every op but
``hello`` from a connection not yet identified.  Authentication is per
connection; the server keeps no client state across connections.

``hello``
    Server metadata: backend kind, hosted sources with their schemas,
    container depth, each source's occupied container-id ranges (the
    coordinator's basis for remote shard pruning), and the table-frame
    compression codecs the server speaks (the client's basis for
    negotiating compressed result streams).  Not part of a query: a
    cluster coordinator asks once per endpoint at connect.
``prepare``
    Parse + plan a query server-side without starting it; returns the
    structured plan tree.  EXPLAIN's op: a query that runs never sends
    it.
``submit``
    Start a query as a server-side session job and return its job id
    (an interactive job starts at once; a batch job queues on the
    server session's fair-share queue).  A full-mode ``accepted`` reply
    also describes the query from the server's one prepare: its static
    output ``schema``, routed ``sources`` and fan-out ``reports``, so a
    query is ``submit`` and its ``fetch_batch`` rounds on one
    connection.  An interactive ``SELECT ... INTO`` runs after the
    reply, and its outcome (a MyDB quota error, say) comes on the
    stream.  ``mode="shard"`` runs only the pushed-down
    shard half of the plan's ``select_index``-th SELECT (numbered after
    set-op fusion; the server plans it with its engine's
    ``prepare_shard``) — the op the remote scatter-gather executor fans
    out.  An optional ``trace_id``
    rides the frame so the server-side job records its spans under the
    *client's* trace — the ``done`` frame ships them back and the client
    grafts them into one merged span tree per query.  Every shard
    submission carries ``ranges`` — a list of closed ``[lo, hi]``
    container-id intervals restricting the shard scan to the
    coordinator's disjoint container assignment (its cover already
    applied: the shard server covers nothing); a shard submission
    without it is refused with a structured error.  The same field is
    how a failover *resumes*: the replacement submission's ranges are
    the dead shard's assignment minus what it already delivered.
``fetch_batch``
    Pull the next run of result batches for a job (client-driven
    streaming: the response is a ``batches`` frame followed by one
    binary table frame per batch, ``done`` marking exhaustion).  Empty
    results are simply ``done`` with zero batches — the client already
    holds the static output schema, so they stay well-formed tables.
    The ``batches`` frame that says ``done`` also carries the job's
    statistics, so a drained query needs no further exchange: its
    ``state`` and ``rows``; ``nodes``, per QET node its ``kind`` plus
    every field of its :class:`~repro.query.qet.NodeStats` (each
    declared counter; the timestamps, ``None`` for events that never
    happened), which the client's remote leaf folds into its own
    record; the job's offset-encoded server-side ``spans`` (see
    :meth:`repro.obs.trace.Trace.to_wire`); its ``analyzed_plan`` — the
    server-executed plan tree annotated with measured rows/time/I-O for
    EXPLAIN ANALYZE; and ``raw``, a flat dict in metrics-registry names
    of what the server's sweeps, buffer pools and result cache counted
    (:func:`repro.obs.report.shared_metrics`; on cache-enabled servers
    with a per-job ``cache.hit`` flag), which the client job's metrics
    merge in, so telemetry survives the wire.  The client folds them in
    once the round's last table frame has arrived.
    On a shard stream, each table frame's header also carries
    ``delivered`` — the cumulative closed container-id
    intervals fully accounted for up to and including that batch — the
    client-side bookkeeping that makes resume-from-range exact.
``cancel``
    Cancel a job, stopping every server-side QET thread (the client's
    out-of-band cancel path).  Job handles are owner-scoped: once a
    connection authenticates, fetch/cancel on another tenant's job id
    is refused with a structured authentication error.
``stats``
    Snapshot of the server's process-wide metrics registry plus server
    vitals: uptime, live/retired job counts, per-user job counts,
    admission queue depth, and (on cache-enabled servers) the cache
    counters with their derived hit rate.
``mydb``
    Control-plane MyDB workspace operations for the connection's user:
    ``list`` (bare table names), ``usage`` (tables/bytes/quota), and
    ``drop`` (delete one table).
``error``
    Structured failure: exception class, module and message.  The client
    re-raises the *original* exception class when it can be resolved
    from the trusted module list (:data:`TRUSTED_ERROR_MODULES`).
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from repro.catalog.schema import Field, Schema
from repro.catalog.table import ObjectTable, take_records
from repro.distributed.routing import ShardFanoutReport
from repro.query.qet import NodeStats
from repro.session.plan import PlanTree

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "TRUSTED_ERROR_MODULES",
    "SUPPORTED_COMPRESSION",
    "negotiate_compression",
    "ProtocolError",
    "ConnectionClosed",
    "RemoteArchiveError",
    "send_frame",
    "recv_frame",
    "jsonable",
    "schema_to_wire",
    "schema_from_wire",
    "table_to_wire",
    "table_from_wire",
    "report_to_wire",
    "report_from_wire",
    "node_stats_to_wire",
    "node_stats_from_wire",
    "plan_to_wire",
    "plan_from_wire",
    "error_to_wire",
    "raise_from_wire",
]

#: Bumped on incompatible frame/op changes; exchanged in ``hello``.
#: 2: credentials identify a connection on any frame, not only on
#: ``hello``; the ``done`` frame carries the job statistics and raw I/O
#: counters; the ``io_report`` op is gone.
#: 3: ``raw`` is a flat dict in metrics-registry names (it was
#: ``sweep`` / ``pool`` pairs and a nested ``cache`` dict).
#: 4: the ``job_stats`` op is gone (the ``done`` frame carries its payload).
#: 5: ``accepted`` carries the schema, sources and reports; ``prepare``
#: answers with the plan tree alone.
#: 6: ``select_index`` numbers the SELECTs after set-op fusion (an
#: INTERSECT or EXCEPT of two bare SELECTs over one source is one).
#: 7: a UNION of two bare SELECTs over one source with one select list
#: fuses too, so ``select_index`` numbers it as one SELECT.
PROTOCOL_VERSION = 7

#: Upper bound on one frame (header + body).  Result batches are at most
#: a few thousand ~1.3 kB records, far below this; the bound exists so a
#: corrupted length prefix fails fast instead of attempting a huge read.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LEN = struct.Struct("!I")


class ProtocolError(RuntimeError):
    """Malformed or unexpected frame on the archive wire."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection (EOF mid-protocol)."""


class RemoteArchiveError(RuntimeError):
    """A server-side failure whose original class could not be re-raised."""


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


def jsonable(value):
    """Recursively convert a value into plain JSON-serializable types.

    Numpy scalars become Python scalars, tuples become lists, dict keys
    become strings; anything else unserializable degrades to ``str``.
    """
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [jsonable(v) for v in value]
    return str(value)


def _header_default(value):
    """What the header encoder does with a value JSON has no type for:
    :func:`jsonable`'s conversions, one value at a time."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, set):
        return list(value)
    return str(value)


_HEADER_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_header_default)


def send_frame(sock, header, body=b""):
    """Write one frame: JSON ``header`` plus optional binary ``body``.

    The header is encoded in one pass, byte for byte as
    ``json.dumps(jsonable(header), separators=(",", ":"))``; a header
    the encoder refuses (a numpy integer key, say) goes through
    :func:`jsonable` first.  Header keys are ``str`` or ``int``: a
    ``bool``, ``None`` or NaN key would be spelled as JSON spells it
    (``true``), not as :func:`jsonable` does (``True``).
    """
    try:
        header_json = _HEADER_ENCODER.encode(header)
    except TypeError:
        header_json = json.dumps(jsonable(header), separators=(",", ":"))
    header_bytes = header_json.encode("utf-8")
    total = _LEN.size + len(header_bytes) + len(body)
    if total > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {total} bytes exceeds the protocol bound")
    sock.sendall(
        _LEN.pack(total) + _LEN.pack(len(header_bytes)) + header_bytes + bytes(body)
    )


def _recv_exact(sock, n):
    """Read exactly ``n`` bytes or raise :class:`ConnectionClosed`."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(
                f"connection closed with {remaining} of {n} bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock):
    """Read one frame; returns ``(header_dict, body_bytes)``."""
    (total,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    if total < _LEN.size or total > MAX_FRAME_BYTES:
        raise ProtocolError(f"invalid frame length {total}")
    payload = _recv_exact(sock, total)
    (header_len,) = _LEN.unpack(payload[: _LEN.size])
    if header_len > total - _LEN.size:
        raise ProtocolError(
            f"header length {header_len} exceeds frame payload {total}"
        )
    header_end = _LEN.size + header_len
    try:
        header = json.loads(payload[_LEN.size : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    return header, payload[header_end:]


# ----------------------------------------------------------------------
# schema and table serialization
# ----------------------------------------------------------------------


def schema_to_wire(schema):
    """Schema -> JSON-safe dict (``None`` passes through)."""
    if schema is None:
        return None
    return {
        "name": schema.name,
        "doc": schema.doc,
        "fields": [
            {
                # Explicit byte order: the dtype string is the wire
                # contract, not a platform default.
                "name": f.name,
                "dtype": np.dtype(f.dtype).str,
                "shape": list(f.shape),
                "unit": f.unit,
                "doc": f.doc,
                "tag": bool(f.tag),
            }
            for f in schema.fields
        ],
    }


def schema_from_wire(wire):
    """Inverse of :func:`schema_to_wire`."""
    if wire is None:
        return None
    return Schema(
        wire["name"],
        [
            Field(
                f["name"],
                f["dtype"],
                shape=tuple(f.get("shape", ())),
                unit=f.get("unit", ""),
                doc=f.get("doc", ""),
                tag=bool(f.get("tag", False)),
            )
            for f in wire["fields"]
        ],
        doc=wire.get("doc", ""),
    )


#: Table-frame compression codecs this build speaks, in preference
#: order.  Negotiated per submission: the client advertises what it
#: accepts, the server picks the first codec both sides know (or none).
SUPPORTED_COMPRESSION = ("zlib",)

#: Bodies below this stay uncompressed — zlib overhead beats the win on
#: tiny frames (aggregate rows, empty batches).
_COMPRESS_MIN_BYTES = 512


def negotiate_compression(accepted):
    """First mutually-supported codec of an ``accept_compression`` list,
    or ``None`` (unknown codecs are skipped, never an error — an older
    peer simply falls back to raw frames)."""
    for codec in accepted or ():
        if codec in SUPPORTED_COMPRESSION:
            return codec
    return None


def table_to_wire(table, compression=None):
    """ObjectTable -> ``(header_fields, body)``: schema JSON + packed rows.

    The body is the structured array's packed bytes; the header carries
    the schema and row count, so the receiver rebuilds the exact dtype.
    With ``compression`` (a negotiated codec name), large bodies are
    compressed and the header records the codec — the receiver's
    :func:`table_from_wire` is transparently symmetric.
    """
    data = np.ascontiguousarray(table.data)
    header = {"schema": schema_to_wire(table.schema), "rows": len(table)}
    body = data.tobytes()
    if compression is not None and len(body) >= _COMPRESS_MIN_BYTES:
        if compression != "zlib":
            raise ProtocolError(f"unknown compression codec {compression!r}")
        compressed = zlib.compress(body, 1)
        if len(compressed) < len(body):
            header["compression"] = "zlib"
            body = compressed
    return header, body


def table_from_wire(header, body):
    """Inverse of :func:`table_to_wire` (decompressing when marked)."""
    codec = header.get("compression")
    if codec is not None:
        if codec != "zlib":
            raise ProtocolError(f"unknown compression codec {codec!r}")
        try:
            body = zlib.decompress(body)
        except zlib.error as exc:
            raise ProtocolError(f"undecodable compressed table: {exc}") from exc
    schema = schema_from_wire(header["schema"])
    rows = int(header.get("rows", 0))
    dtype = schema.numpy_dtype()
    if rows * dtype.itemsize != len(body):
        raise ProtocolError(
            f"table body of {len(body)} bytes does not hold {rows} "
            f"records of {dtype.itemsize} bytes"
        )
    data = take_records(np.frombuffer(body, dtype=dtype, count=rows), slice(None))
    return ObjectTable(schema, data)


# ----------------------------------------------------------------------
# report / stats / plan serialization
# ----------------------------------------------------------------------


def report_to_wire(report):
    """ShardFanoutReport -> JSON-safe dict."""
    return {
        "source": report.source,
        "servers_total": report.servers_total,
        "touched_server_ids": list(report.touched_server_ids),
        "pruned_server_ids": list(report.pruned_server_ids),
        "estimated_bytes_per_server": report.estimated_bytes_per_server,
        "simulated_seconds_per_server": report.simulated_seconds_per_server,
        "simulated_seconds": report.simulated_seconds,
        "simulated_seconds_single_server": report.simulated_seconds_single_server,
    }


def _int_keyed(mapping, value_type):
    return {int(k): value_type(v) for k, v in (mapping or {}).items()}


def report_from_wire(wire):
    """Inverse of :func:`report_to_wire` (JSON string keys -> int)."""
    return ShardFanoutReport(
        source=wire["source"],
        servers_total=int(wire.get("servers_total", 0)),
        touched_server_ids=[int(s) for s in wire.get("touched_server_ids", [])],
        pruned_server_ids=[int(s) for s in wire.get("pruned_server_ids", [])],
        estimated_bytes_per_server=_int_keyed(
            wire.get("estimated_bytes_per_server"), int
        ),
        simulated_seconds_per_server=_int_keyed(
            wire.get("simulated_seconds_per_server"), float
        ),
        simulated_seconds=float(wire.get("simulated_seconds", 0.0)),
        simulated_seconds_single_server=float(
            wire.get("simulated_seconds_single_server", 0.0)
        ),
    )


def node_stats_to_wire(node_stats):
    """``{node: NodeStats}`` -> one JSON-safe dict per node: its ``kind``
    plus every field of its record.  Timestamps are perf-counter floats
    local to the serializing process (meaningful only as deltas to the
    receiver) and stay ``None`` for events that never happened — a
    never-started node ships as such."""
    return [
        {"kind": getattr(node, "name", type(node).__name__), **vars(stats)}
        for node, stats in node_stats.items()
    ]


def node_stats_from_wire(wire):
    """One :func:`node_stats_to_wire` entry -> :class:`NodeStats`; a
    field the sender did not know keeps its zero."""
    stats = NodeStats()
    vars(stats).update({name: wire[name] for name in vars(stats) if name in wire})
    return stats


def plan_to_wire(tree):
    """PlanTree -> JSON-safe dict (``None`` passes through)."""
    if tree is None:
        return None
    return {
        "kind": tree.kind,
        "detail": jsonable(tree.detail),
        "children": [plan_to_wire(child) for child in tree.children],
    }


def plan_from_wire(wire):
    """Inverse of :func:`plan_to_wire`."""
    if wire is None:
        return None
    return PlanTree(
        kind=wire["kind"],
        detail=dict(wire.get("detail", {})),
        children=[plan_from_wire(child) for child in wire.get("children", [])],
    )


# ----------------------------------------------------------------------
# structured errors
# ----------------------------------------------------------------------

#: Modules whose exception classes the client will re-instantiate from a
#: wire error frame.  Anything else degrades to RemoteArchiveError — the
#: wire must never become an arbitrary-import channel.
TRUSTED_ERROR_MODULES = (
    "builtins",
    "repro.query.errors",
    "repro.session.core",
    "repro.service.errors",
    "repro.net.protocol",
    "repro.storage.containers",
)


def error_to_wire(exc):
    """Exception -> structured error frame header."""
    cls = type(exc)
    return {
        "op": "error",
        "error_class": cls.__name__,
        "error_module": cls.__module__,
        "message": str(exc),
    }


def _resolve_error_class(module_name, class_name):
    if module_name not in TRUSTED_ERROR_MODULES:
        return None
    import importlib

    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    cls = getattr(module, class_name, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        return cls
    return None


def raise_from_wire(header):
    """Re-raise a server-side failure with its original exception class.

    Falls back to :class:`RemoteArchiveError` when the class is unknown
    or outside the trusted modules.
    """
    class_name = header.get("error_class", "RemoteArchiveError")
    module_name = header.get("error_module", "")
    message = header.get("message", "remote archive error")
    cls = _resolve_error_class(module_name, class_name)
    if cls is not None:
        try:
            raise cls(message)
        except TypeError:
            # Exotic constructor signature: keep the class name visible.
            pass
    raise RemoteArchiveError(f"{class_name}: {message}")
