"""Remote scatter-gather: partition servers in other processes.

PR 1's :class:`~repro.distributed.DistributedQueryEngine` proved the
plan split — shard sub-plans pushed down, a coordinator merge on top —
with every shard living in one process.  This module puts each shard
behind a real :class:`~repro.net.server.ArchiveServer`:

* every endpoint hosts one partition's containers (a single-store
  backend, the shape ``DistributedArchive`` gives each
  :class:`~repro.storage.cluster.ServerNode`);
* the coordinator plans the query *once* against the schemas the
  endpoints advertise in ``hello``, assigns each container under the
  plan's HTM cover to one endpoint holding it, and fans the query text
  out as ``mode="shard"`` submissions carrying those ``ranges`` — both
  ends derive the same deterministic
  :func:`~repro.query.optimizer.split_plan` from the text, so no plan
  closures ever cross the wire, and no shard server covers again;
* the ordinary coordinator merge tree
  (:func:`~repro.query.physical.merge_tree`: streaming exchange, one
  sort over the shard streams, or one aggregate folding the shards'
  partial states) runs over :class:`~repro.net.client.RemoteRootNode`
  leaves instead of local scans — scatter-gather genuinely spanning
  processes.

``Archive.connect(["archive://h:p0", "archive://h:p1", ...])`` builds
one of these and returns an ordinary :class:`~repro.session.Session`.
"""

from __future__ import annotations

import functools
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.distributed.routing import ShardFanoutReport
from repro.htm.ranges import RangeSet
from repro.net.client import (
    RemoteRootNode,
    ServerLink,
    WireTelemetry,
    parse_archive_options,
)
from repro.net.protocol import PROTOCOL_VERSION
from repro.net.protocol import ProtocolError, RemoteArchiveError, schema_from_wire
from repro.query.errors import UnrecoverableShardError
from repro.query.parser import parse_query
from repro.query.physical import Executor, prepare_query, scatter_gather_tree

__all__ = [
    "RemotePartitionedExecutor",
    "RemoteShard",
    "ShardFailoverPlanner",
]


class RemoteShard:
    """One partition-server endpoint plus its advertised metadata."""

    def __init__(self, shard_id, link, hello):
        self.shard_id = int(shard_id)
        #: the ServerLink every call to this endpoint goes through
        self.link = link
        self.endpoint = link.endpoint
        self.kind = hello.get("kind", "unknown")
        self.version = hello.get("version")
        self.depth = hello.get("depth")
        self.shard_capable = bool(hello.get("shard_capable"))
        self.schemas = {}
        #: per source, the occupied container ids the hello advertised
        self.ranges = {}
        #: per source, ``ranges`` padded with ids no endpoint holds
        #: (:func:`_pad_holdings`): what an assignment is cut from
        self.padded = {}
        for name, info in hello.get("sources", {}).items():
            self.schemas[name] = schema_from_wire(info["schema"])
            self.ranges[name] = RangeSet(info.get("ranges", []))

    def __repr__(self):
        host, port = self.endpoint
        return f"RemoteShard({self.shard_id}, archive://{host}:{port})"


def _pad_holdings(shards, source):
    """Fill every shard's ``padded[source]`` once, at connect: each gap
    between held intervals goes to every shard holding the id below it,
    so an assignment is a few intervals, not one per occupied run.
    Padded ids have rows nowhere; pruning and failover read ``ranges``."""
    union = RangeSet()
    for shard in shards:
        union = union.union(shard.ranges[source])
    intervals = union.intervals
    gaps = [(hi + 1, lo - 1) for (_, hi), (lo, _) in zip(intervals, intervals[1:])]
    for shard in shards:
        held = shard.ranges[source]
        shard.padded[source] = RangeSet(
            held.intervals + tuple(gap for gap in gaps if held.contains(gap[0] - 1))
        )


class ShardFailoverPlanner:
    """Per-query failover state shared by one SELECT's shard leaves.

    Tracks which endpoints died (thread-safe — shard nodes fail
    concurrently) and plans replacements: which surviving replicas
    cover a dead shard's still-undelivered container ranges.  Raises
    :class:`~repro.query.errors.UnrecoverableShardError` naming the
    uncoverable ranges when the cluster has degraded too far — the
    structured FAILED cause the acceptance contract demands.
    """

    def __init__(self, shards, source):
        self.shards = list(shards)
        self.source = source
        self._dead = set()
        self._lock = threading.Lock()

    def mark_dead(self, endpoint):
        with self._lock:
            self._dead.add(tuple(endpoint))

    def survivors(self):
        """Shards not yet marked dead, in shard-id order."""
        with self._lock:
            dead = set(self._dead)
        return [s for s in self.shards if s.endpoint not in dead]

    def undelivered(self, ranges, delivered):
        """A dead segment's ``ranges`` minus its ``delivered`` claim,
        within what some endpoint holds (padding has rows nowhere)."""
        held = RangeSet()
        for shard in self.shards:
            held = held.union(shard.ranges[self.source])
        return RangeSet(ranges).difference(RangeSet(delivered or ())).intersect(held)

    def replacements(self, remaining, dead_endpoint):
        """``[(endpoint, RangeSet), ...]`` covering ``remaining``: the
        remainder split greedily across survivors in shard-id order."""
        host, port = dead_endpoint
        survivors = [
            s for s in self.survivors() if s.endpoint != tuple(dead_endpoint)
        ]
        assignments = []
        left = remaining
        for shard in survivors:
            if left.is_empty():
                break
            take = left.intersect(shard.ranges[self.source])
            if take.is_empty():
                continue
            assignments.append((shard.endpoint, take))
            left = left.difference(take)
        if not left.is_empty():
            raise UnrecoverableShardError(
                "no surviving replica covers container ranges "
                f"{[list(iv) for iv in left.intervals]} after archive "
                f"server at {host}:{port} died",
                ranges=left.intervals,
                endpoint=dead_endpoint,
            )
        return assignments


class RemotePartitionedExecutor(Executor):
    """Executor: scatter-gather over remote shards.

    ``prepare`` plans locally (against the shard-advertised schemas),
    prunes endpoints by HTM cover, and returns an unstarted coordinator
    merge tree whose leaves are shard-mode
    :class:`~repro.net.client.RemoteRootNode` submissions — one
    process-spanning QET behind the ordinary Session.
    """

    kind = "remote-cluster"
    parse = staticmethod(parse_query)

    def __init__(
        self,
        urls,
        *,
        connect_timeout=5.0,
        timeout=None,
        compression=None,
        user=None,
        token=None,
    ):
        urls = list(urls)
        if not urls:
            raise ValueError("remote cluster needs at least one endpoint")
        if compression is None:
            # honor ?compress=zlib URL options (any endpoint opts the
            # whole cluster in — shard streams share one codec choice)
            for url in urls:
                options = parse_archive_options(url)
                if "compress" in options:
                    compression = options["compress"] or "zlib"
                    break
        #: table-frame codec requested on every shard submission
        self.compression = compression
        #: one round-trip count for the whole cluster (the links share it)
        self.telemetry = WireTelemetry()
        # user= / token= win over every endpoint's URL credentials
        links = [
            ServerLink.from_url(
                url,
                user,
                token,
                connect_timeout=connect_timeout,
                timeout=timeout,
                telemetry=self.telemetry,
            )
            for url in urls
        ]

        # Concurrent hello probes: one dead endpoint used to serialize
        # startup by connect_timeout *each*; probing in parallel bounds
        # startup by the slowest single endpoint and reports every
        # unreachable one in a single error instead of the first.
        with ThreadPoolExecutor(
            max_workers=min(len(links), 16),
            thread_name_prefix="archive-probe",
        ) as pool:
            futures = [pool.submit(link.call, {"op": "hello"}) for link in links]
        self.shards = []
        unreachable = []
        for shard_id, (url, link, future) in enumerate(zip(urls, links, futures)):
            try:
                shard = RemoteShard(shard_id, link, future.result())
            except (OSError, ProtocolError, RemoteArchiveError) as exc:
                unreachable.append(f"{url} ({exc})")
                continue
            if not shard.shard_capable:
                raise ValueError(
                    f"endpoint {url} hosts a {shard.kind!r} backend and "
                    "cannot serve shard-mode queries"
                )
            if shard.version != PROTOCOL_VERSION:
                # a version may renumber the select_index a shard submit names
                raise ValueError(
                    f"endpoint {url} speaks protocol version {shard.version}, "
                    f"this coordinator {PROTOCOL_VERSION}"
                )
            self.shards.append(shard)
        if unreachable:
            raise ConnectionError(
                f"{len(unreachable)} of {len(urls)} cluster endpoint(s) "
                f"unreachable: {'; '.join(unreachable)}"
            )
        self.depth = self.shards[0].depth
        self.schemas = dict(self.shards[0].schemas)
        for shard in self.shards[1:]:
            if shard.depth != self.depth:
                raise ValueError(
                    "remote shards disagree on container depth: "
                    f"{shard.depth} != {self.depth}"
                )
            missing = set(self.schemas) - set(shard.schemas)
            if missing:
                raise ValueError(
                    f"shard {shard!r} is missing sources {sorted(missing)}"
                )
        for source in self.schemas:
            _pad_holdings(self.shards, source)

    # -- planning -------------------------------------------------------

    def prepare(self, text, allow_tag_route=True, ast=None):
        def select_root(plan, select_index):
            fan_out = functools.partial(
                self._fan_out, text, select_index, allow_tag_route
            )
            return scatter_gather_tree(plan, self.depth, fan_out)

        return prepare_query(
            text, self.schemas, select_root, ast=ast, allow_tag_route=allow_tag_route
        )

    def _fan_out(self, text, select_index, allow_tag_route, sharded, candidates):
        """Submit the shard half of SELECT ``select_index`` to every
        endpoint holding a container of its assignment — its padded
        holdings under the cover minus what an earlier endpoint took
        (holdings may overlap; shard-id order wins): ``(leaves, report)``."""
        source = sharded.base.routed_source
        report = ShardFanoutReport(source=source, servers_total=len(self.shards))
        failover = ShardFailoverPlanner(self.shards, source)
        taken = RangeSet()
        shard_roots = []
        for shard in self.shards:
            padded = shard.padded[source]
            wanted = padded if candidates is None else padded.intersect(candidates)
            assigned = wanted.difference(taken)
            if not shard.ranges[source].overlaps(assigned):
                report.pruned_server_ids.append(shard.shard_id)
                continue
            taken = taken.union(assigned)
            report.touched_server_ids.append(shard.shard_id)
            shard_roots.append(
                RemoteRootNode(
                    shard.link,
                    text,
                    allow_tag_route=allow_tag_route,
                    mode="shard",
                    select_index=select_index,
                    server_id=shard.shard_id,
                    compression=self.compression,
                    ranges=assigned.intervals,
                    failover=failover,
                )
            )
        return shard_roots, report

    def stats(self):
        """Per-endpoint server stats: one ``stats`` snapshot per shard,
        in shard-id order, each tagged with its endpoint.

        The client-side aggregation (summing cache counters, comparing
        per-server job counts) is left to the caller — shard servers are
        separate processes with separate metric registries, so there is
        no meaningful single merged registry to fabricate here.
        """
        snapshots = []
        for shard in self.shards:
            host, port = shard.endpoint
            snapshot = shard.link.call({"op": "stats"})
            snapshot["endpoint"] = f"{host}:{port}"
            snapshot["shard_id"] = shard.shard_id
            snapshots.append(snapshot)
        return snapshots

    def __repr__(self):
        return f"RemotePartitionedExecutor({len(self.shards)} shards)"
