"""repro.net — the network archive protocol.

The paper's architecture is networked: the query agent talks to archive
servers over an interface boundary, and "splitting the data among
multiple servers enables parallel, scalable I/O".  This package is that
boundary made real, with nothing caller-visible changing:

* :mod:`repro.net.protocol` — length-prefixed JSON + binary frames
  (``hello`` / ``prepare`` / ``submit`` / ``fetch_batch`` / ``cancel`` /
  ``mydb`` / ``stats``), schema-carrying table serialization,
  and structured error frames that re-raise the original exception
  class client-side.
* :mod:`repro.net.server` — :class:`ArchiveServer`: any backend
  :meth:`~repro.session.core.Archive.connect` accepts, hosted on
  localhost TCP, thread-per-connection, every remote job run through
  the server's one Session (shared sweeps + fair-share batch queue), plus
  the ``python -m repro.net.server`` CLI.
* :mod:`repro.net.client` — :class:`RemoteExecutor` /
  :class:`RemoteRootNode`: ``Archive.connect("archive://host:port")``
  returns an ordinary Session whose queries execute remotely; cancel
  propagates over the wire, a dead server is a FAILED job, never a
  hang.  Every wire call goes through one :class:`ServerLink` (address,
  identity, timeouts, telemetry, retry policy).
* :mod:`repro.net.cluster` — :class:`RemotePartitionedExecutor`:
  ``Archive.connect(["archive://...", ...])`` scatter-gathers the
  deterministic shard/merge plan split across partition servers in
  other processes; on replicated clusters a
  :class:`ShardFailoverPlanner` re-routes the undelivered container
  ranges of a mid-stream server death to surviving replicas.
* :mod:`repro.net.faults` — :class:`FaultPolicy` /
  :class:`ScriptedFaults`: deterministic fault injection hooks an
  :class:`ArchiveServer` consults at every op and streamed batch, for
  chaos tests that kill servers at a chosen, reproducible point.
"""

from repro.net.client import (
    RemoteExecutor,
    RemoteRootNode,
    RetryPolicy,
    ServerLink,
    WireTelemetry,
    parse_archive_options,
    parse_archive_url,
)
from repro.net.cluster import (
    RemotePartitionedExecutor,
    RemoteShard,
    ShardFailoverPlanner,
)
from repro.net.faults import (
    CrashServer,
    DropConnection,
    FaultPolicy,
    ScriptedFaults,
)
from repro.net.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    RemoteArchiveError,
)


def __getattr__(name):
    # The server symbols load lazily so `python -m repro.net.server`
    # does not import repro.net.server twice (once via this package,
    # once as __main__) — runpy would warn about the double life.
    if name == "ArchiveServer":
        from repro.net.server import ArchiveServer

        return ArchiveServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ArchiveServer",
    "RemoteExecutor",
    "RemoteRootNode",
    "RetryPolicy",
    "ServerLink",
    "RemotePartitionedExecutor",
    "RemoteShard",
    "ShardFailoverPlanner",
    "FaultPolicy",
    "ScriptedFaults",
    "DropConnection",
    "CrashServer",
    "WireTelemetry",
    "parse_archive_options",
    "parse_archive_url",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ConnectionClosed",
    "RemoteArchiveError",
]
